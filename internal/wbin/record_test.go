package wbin

import (
	"errors"
	"math"
	"testing"
)

type rec struct {
	head    uint64
	a, b, c int32
	imm     uint64
	side    int32
}

func (x rec) write(w *Writer) { w.Record(x.head, x.a, x.b, x.c, x.imm, x.side) }

func readRec(r *Reader) rec {
	var x rec
	x.head, x.a, x.b, x.c, x.imm, x.side = r.Record()
	return x
}

// recordSamples covers every field at its limits and every width class
// the decoder treats differently: absent, one byte, two bytes, wide; the
// inline side nibble at 0 and 14, the escape at 15, -1 and the int32
// extremes; a head past two bytes; an immediate past eight.
var recordSamples = []rec{
	{},
	{head: 1, a: 1, b: -1, c: 63, imm: 127, side: 14},
	{head: 0x7f, a: -64, b: 64, c: -65, imm: 128, side: 15},
	{head: 0x80, a: 8191, b: -8192, c: 8192, imm: 1<<14 - 1, side: -1},
	{head: 0x3fff, imm: 1 << 14, side: 64},
	{head: 0x4000, a: math.MaxInt32, b: math.MinInt32, c: math.MaxInt32, imm: 1<<56 - 1, side: math.MaxInt32},
	{head: math.MaxUint64, a: math.MinInt32, b: math.MaxInt32, c: math.MinInt32, imm: 1 << 56, side: math.MinInt32},
	{head: 3, imm: math.MaxUint64},
	{head: 0x1001, c: 700},
}

func encodeRecords(recs []rec) []byte {
	w := NewWriter(0)
	for _, x := range recs {
		x.write(w)
	}
	return w.Bytes()
}

// TestRecordRoundTrip reads the samples back twice: with the input
// ending right after the last record (so the final records, one by one,
// cross from the slack-assuming body into the zero-padded tail) and with
// slack appended (so every record takes the body).
func TestRecordRoundTrip(t *testing.T) {
	enc := encodeRecords(recordSamples)
	for _, slack := range []int{0, MaxRecordLen} {
		r := NewReader(append(append([]byte(nil), enc...), make([]byte, slack)...))
		for i, want := range recordSamples {
			if got := readRec(r); got != want {
				t.Errorf("slack %d, record %d: got %+v, want %+v", slack, i, got, want)
			}
		}
		if r.Err() != nil || r.Remaining() != slack {
			t.Errorf("slack %d: Err %v, %d bytes left", slack, r.Err(), r.Remaining())
		}
	}
	if n := len(encodeRecords([]rec{{}})); n != MinRecordLen {
		t.Errorf("the empty record takes %d bytes, MinRecordLen is %d", n, MinRecordLen)
	}
	for _, x := range recordSamples {
		if n := len(encodeRecords([]rec{x})); n > MaxRecordLen {
			t.Errorf("%+v takes %d bytes, MaxRecordLen is %d", x, n, MaxRecordLen)
		}
	}
}

// TestRecordTruncation cuts the samples at every byte: the reader must
// return the records that are whole, latch ErrMalformed on the first
// that is not, and return zero records from then on — never panic, never
// read a field out of the padding.
func TestRecordTruncation(t *testing.T) {
	enc := encodeRecords(recordSamples)
	var ends []int // offset at which each record ends
	for i := range recordSamples {
		ends = append(ends, len(encodeRecords(recordSamples[:i+1])))
	}
	for cut := 0; cut < len(enc); cut++ {
		r := NewReader(enc[:cut])
		for i, want := range recordSamples {
			got := readRec(r)
			if ends[i] <= cut {
				if got != want || r.Err() != nil {
					t.Fatalf("cut %d: whole record %d read as %+v (Err %v)", cut, i, got, r.Err())
				}
				continue
			}
			if !errors.Is(r.Err(), ErrMalformed) {
				t.Fatalf("cut %d: record %d ends at %d but Err = %v", cut, i, ends[i], r.Err())
			}
			if got != (rec{}) {
				t.Fatalf("cut %d: truncated record %d read as %+v, want zero", cut, i, got)
			}
		}
	}
}

// TestRecordHostile: varints no encoder writes — over 64 bits, over 32
// bits in a 32-bit field, unterminated — are errors whether the record
// sits in the body's reach or in the tail's.
func TestRecordHostile(t *testing.T) {
	over64 := append(make([]byte, 0, 11), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)
	over32 := []byte{0xff, 0xff, 0xff, 0xff, 0x1f} // 2^33-1
	endless := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}
	cases := []struct {
		name string
		in   []byte
	}{
		{"head over 64 bits", over64},
		{"head unterminated", endless},
		{"A over 32 bits", append([]byte{1, recA}, over32...)},
		{"B over 32 bits", append([]byte{1, recB}, over32...)},
		{"C unterminated", append([]byte{1, recC}, endless...)},
		{"Imm over 64 bits", append([]byte{1, recImm}, over64...)},
		{"side over 32 bits", append([]byte{1, sideEscape << 4}, over32...)},
	}
	for _, c := range cases {
		for _, slack := range []int{0, MaxRecordLen} {
			r := NewReader(append(append([]byte(nil), c.in...), make([]byte, slack)...))
			readRec(r)
			if !errors.Is(r.Err(), ErrMalformed) {
				t.Errorf("%s (slack %d): Err = %v, want ErrMalformed", c.name, slack, r.Err())
			}
		}
	}
	// A latched reader hands out zero records without touching the input.
	r := NewReader(make([]byte, 2*MaxRecordLen))
	r.Raw(-1)
	if got := readRec(r); got != (rec{}) || r.Remaining() != 2*MaxRecordLen {
		t.Errorf("Record after a latched error: %+v, %d bytes left", got, r.Remaining())
	}
}
