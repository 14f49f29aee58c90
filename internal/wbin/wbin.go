// Package wbin is the wire format shared by the persistent code cache:
// a tiny append-only writer and an error-latching reader. It exists so
// every serializer in the artifact pipeline (mach code, rewriter code,
// validation metadata, the cache envelope itself) agrees on one encoding
// and one failure discipline.
//
// Scalars are little-endian fixed-width words or varints. The bulk of an
// artifact — instruction streams and sidetables — is arrays of small
// records whose fields are mostly zero or tiny, and those go through the
// one compact record encoding of record.go. Every byte of an artifact is
// checksummed before one is interpreted, so its size is paid on every
// cold load: the compact records are what keeps an artifact near the
// size of the code it holds.
//
// The reader is designed for hostile input — a cache file may be
// truncated, bit-flipped or written by a different revision — so it
// never panics and never allocates proportionally to an attacker-chosen
// length prefix: every length is checked against the bytes actually
// remaining before any slice is made. The first malformed read latches
// an error; subsequent reads return zero values, so decoders can run
// straight-line and check Err once at the end.
package wbin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed is the latched error for any structurally invalid read.
var ErrMalformed = errors.New("wbin: malformed input")

// Writer accumulates an encoded artifact section.
type Writer struct {
	buf []byte
}

// NewWriter creates a writer with a capacity hint.
func NewWriter(capHint int) *Writer {
	return &Writer{buf: make([]byte, 0, capHint)}
}

// Bytes returns the encoded bytes (owned by the writer).
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends a zigzag-encoded signed varint.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends bytes with no prefix (for fixed-size fields).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes wbin-encoded bytes. The zero value over a byte slice
// is usable; construct with NewReader.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader creates a reader over buf. The reader never mutates buf and
// copies everything it hands out, so buf may be an mmap'd region that
// is unmapped after decoding finishes.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Err returns the first malformed-input error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrMalformed, what, r.off)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail(fmt.Sprintf("need %d bytes, have %d", n, len(r.buf)-r.off))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Length reads a uvarint length prefix and validates it against the
// remaining input, so corrupt prefixes cannot drive huge allocations.
func (r *Reader) Length() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.Remaining()) || v > math.MaxInt32 {
		r.fail(fmt.Sprintf("length %d exceeds %d remaining bytes", v, r.Remaining()))
		return 0
	}
	return int(v)
}

// Count reads a uvarint element count for elements of at least elemSize
// encoded bytes each, bounding allocation by the remaining input.
func (r *Reader) Count(elemSize int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if v > uint64(r.Remaining()/elemSize) {
		r.fail(fmt.Sprintf("count %d exceeds remaining input", v))
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Length()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Raw reads n bytes without a prefix (copied out of the buffer).
func (r *Reader) Raw(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
