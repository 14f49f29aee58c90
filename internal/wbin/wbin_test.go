package wbin

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// record is one value of every primitive the format has; write and read
// must stay field-for-field mirrors of each other.
type record struct {
	u8     uint8
	u32    uint32
	uv     uint64
	sv     int64
	yes    bool
	no     bool
	str    string
	raw    [3]byte
	length int // Length prefix, followed by that many Raw bytes
	count  int // Count prefix of 2-byte elements
}

var sample = record{
	u8: 0xAB, u32: 0xDEADBEEF,
	uv: 1<<40 + 7, sv: math.MinInt64, yes: true, no: false,
	str: "wizgo-codegen", raw: [3]byte{9, 8, 7}, length: 2, count: 3,
}

func (rec record) write(w *Writer) {
	w.U8(rec.u8)
	w.U32(rec.u32)
	w.Uvarint(rec.uv)
	w.Varint(rec.sv)
	w.Bool(rec.yes)
	w.Bool(rec.no)
	w.String(rec.str)
	w.Raw(rec.raw[:])
	w.Uvarint(uint64(rec.length))
	w.Raw(make([]byte, rec.length))
	w.Uvarint(uint64(rec.count))
	for i := 0; i < rec.count; i++ {
		w.Raw([]byte{byte(i), 0})
	}
}

func read(r *Reader) record {
	var rec record
	rec.u8 = r.U8()
	rec.u32 = r.U32()
	rec.uv = r.Uvarint()
	rec.sv = r.Varint()
	rec.yes = r.Bool()
	rec.no = r.Bool()
	rec.str = r.String()
	copy(rec.raw[:], r.Raw(len(rec.raw)))
	rec.length = r.Length()
	r.Raw(rec.length)
	rec.count = r.Count(2)
	for i := 0; i < rec.count; i++ {
		r.Raw(2)
	}
	return rec
}

func TestRoundTrip(t *testing.T) {
	w := NewWriter(0)
	sample.write(w)
	r := NewReader(w.Bytes())
	got := read(r)
	if err := r.Err(); err != nil {
		t.Fatalf("round-trip latched %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left after reading everything written", r.Remaining())
	}
	if !reflect.DeepEqual(got, sample) {
		t.Errorf("round-trip changed the record:\n got %+v\nwant %+v", got, sample)
	}

	// Raw hands out copies (the input may be an mmap about to go away).
	in := []byte{1, 2, 3}
	raw := NewReader(in).Raw(len(in))
	in[0] = 0
	if !bytes.Equal(raw, []byte{1, 2, 3}) {
		t.Error("Raw result aliases the input buffer")
	}
}

// TestTruncation cuts the encoding at every byte: the reader must latch
// ErrMalformed (never panic), keep it latched, and return zero values
// from then on.
func TestTruncation(t *testing.T) {
	w := NewWriter(0)
	sample.write(w)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		read(r)
		err := r.Err()
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("cut at %d of %d: Err = %v, want ErrMalformed", cut, len(full), err)
		}
		if r.U8() != 0 || r.U32() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.Bool() ||
			r.String() != "" || r.Raw(1) != nil || r.Length() != 0 || r.Count(1) != 0 {
			t.Fatalf("cut at %d: a read after the latched error returned a non-zero value", cut)
		}
		if r.Err() != err {
			t.Fatalf("cut at %d: latched error was replaced: %v then %v", cut, err, r.Err())
		}
	}
}

// TestOverlongPrefix: a length or count prefix larger than the bytes
// that follow is an error before any allocation is sized from it.
func TestOverlongPrefix(t *testing.T) {
	prefixed := func(n uint64, tail int) []byte {
		w := NewWriter(0)
		w.Uvarint(n)
		w.Raw(make([]byte, tail))
		return w.Bytes()
	}
	cases := []struct {
		name string
		in   []byte
		read func(*Reader)
	}{
		{"String", prefixed(5, 4), func(r *Reader) { _ = r.String() }},
		{"Length", prefixed(math.MaxUint64, 4), func(r *Reader) { r.Length() }},
		{"Length over MaxInt32", prefixed(math.MaxInt32+1, 0), func(r *Reader) { r.Length() }},
		{"Count", prefixed(3, 4), func(r *Reader) { r.Count(2) }},
		{"Count huge", prefixed(math.MaxUint64, 4), func(r *Reader) { r.Count(0) }},
		{"Raw", []byte{1, 2}, func(r *Reader) { r.Raw(3) }},
		{"Raw negative", []byte{1, 2}, func(r *Reader) { r.Raw(-1) }},
		{"Uvarint overflow", bytes.Repeat([]byte{0xFF}, 11), func(r *Reader) { r.Uvarint() }},
		{"Varint overflow", bytes.Repeat([]byte{0xFF}, 11), func(r *Reader) { r.Varint() }},
	}
	for _, c := range cases {
		r := NewReader(c.in)
		c.read(r)
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: Err = %v, want ErrMalformed", c.name, r.Err())
		}
	}

	// A prefix that exactly fits is not an error.
	r := NewReader(prefixed(4, 4))
	if n := r.Count(1); n != 4 || r.Err() != nil {
		t.Errorf("Count(1) over an exact fit = %d, %v", n, r.Err())
	}
}
