package wbin

import (
	"encoding/binary"
	"math"
)

// The compact record is the one encoding of every bulk array in an
// artifact: mach instructions, rewriter instructions and sidetable
// entries. A record is a leading unsigned field (an instruction's
// opcode, a sidetable entry's target), three signed 32-bit operands, a
// 64-bit immediate and a signed 32-bit side value that callers
// delta-code against the previous record (a pc map, an owner offset):
//
//	head   uvarint
//	flags  u8       bits 0-3: A, B, C, Imm are present (non-zero)
//	                bits 4-7: side value 0-14, or 15 = escaped
//	[A] [B] [C]     zigzag varints, only those present
//	[Imm]           uvarint, only if present
//	[side]          zigzag varint, only if escaped
//
// Most operands are zero or a register number and most side deltas are
// a few bytes of bytecode, so a typical record is 3-6 bytes against the
// 24-28 of its in-memory form.
const (
	recA = 1 << iota
	recB
	recC
	recImm

	sideEscape = 15

	// MinRecordLen and MaxRecordLen bound one encoded record: head and
	// flags at least; at most a 10-byte head, the flags, three 5-byte
	// operands, a 10-byte immediate and a 5-byte side value (41 bytes),
	// rounded up so the decoder's slack is one cache line.
	MinRecordLen = 2
	MaxRecordLen = 64
)

func zigzag32(v int32) uint64 { return uint64(uint32(v<<1) ^ uint32(v>>31)) }

func unzigzag32(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// Record appends one compact record.
func (w *Writer) Record(head uint64, a, b, c int32, imm uint64, side int32) {
	n := len(w.buf)
	if cap(w.buf)-n < MaxRecordLen {
		w.buf = append(w.buf, make([]byte, MaxRecordLen)...)[:n]
	}
	p := w.buf[n : n+MaxRecordLen]
	i := binary.PutUvarint(p, head)
	flags := &p[i]
	i++
	var f byte
	if a != 0 {
		f |= recA
		i += binary.PutUvarint(p[i:], zigzag32(a))
	}
	if b != 0 {
		f |= recB
		i += binary.PutUvarint(p[i:], zigzag32(b))
	}
	if c != 0 {
		f |= recC
		i += binary.PutUvarint(p[i:], zigzag32(c))
	}
	if imm != 0 {
		f |= recImm
		i += binary.PutUvarint(p[i:], imm)
	}
	if uint32(side) < sideEscape {
		f |= byte(side) << 4
	} else {
		f |= sideEscape << 4
		i += binary.PutUvarint(p[i:], zigzag32(side))
	}
	*flags = f
	w.buf = w.buf[:n+i]
}

// Record reads one compact record. While a maximum-size record's worth
// of input remains it decodes straight off the buffer: no field can run
// past the end, so there is no per-field length check and nothing to
// latch but an over-long or over-wide varint. The last few records of
// an input go through recordTail, which runs this same code over a
// zero-padded copy — one decoder, not a fast one and a careful one.
//
// The body below is a leaf (no calls, so nothing spills) for the shape
// nearly every record has: head and operands of one or two bytes — an
// opcode, a register, a slot, a branch target — and an immediate of up
// to eight. A record with any longer field is re-read from its start
// by recordWide.
//
// This is one out-of-line call per record, shared by all three record
// users, not a loop inlined per record type: on the benchmark's
// 397k-instruction module it holds engine.rehydrate_ms at the level of
// the fixed-width loops it replaced (median of ten alternated runs 5.13
// ms against 5.26), so nothing is repeated.
func (r *Reader) Record() (head uint64, a, b, c int32, imm uint64, side int32) {
	if r.err != nil {
		return
	}
	if len(r.buf)-r.off < MaxRecordLen {
		return r.recordTail()
	}
	p := r.buf[r.off:]
	u, i, ok := short(p, 0)
	if !ok {
		return r.recordWide(p)
	}
	head = uint64(u)
	f := p[i]
	i++
	if f&recA != 0 {
		if u, i, ok = short(p, i); !ok {
			return r.recordWide(p)
		}
		a = unzigzag32(u)
	}
	if f&recB != 0 {
		if u, i, ok = short(p, i); !ok {
			return r.recordWide(p)
		}
		b = unzigzag32(u)
	}
	if f&recC != 0 {
		if u, i, ok = short(p, i); !ok {
			return r.recordWide(p)
		}
		c = unzigzag32(u)
	}
	if f&recImm != 0 {
		imm = uint64(p[i])
		i++
		if imm >= 0x80 {
			imm &= 0x7f
			for s := 7; ; s += 7 {
				if s > 49 {
					return r.recordWide(p)
				}
				x := p[i]
				i++
				imm |= uint64(x&0x7f) << s
				if x < 0x80 {
					break
				}
			}
		}
	}
	if side = int32(f >> 4); side == sideEscape {
		if u, i, ok = short(p, i); !ok {
			return r.recordWide(p)
		}
		side = unzigzag32(u)
	}
	r.off += i
	return
}

// short reads a varint of one or two bytes at p[i:] and returns the
// offset past it; ok is false if it is longer.
func short(p []byte, i int) (u uint32, next int, ok bool) {
	if u = uint32(p[i]); u < 0x80 {
		return u, i + 1, true
	}
	x := uint32(p[i+1])
	return u&0x7f | x<<7, i + 2, x < 0x80
}

// recordWide is Record for fields of any length, over the same
// MaxRecordLen of slack.
func (r *Reader) recordWide(p []byte) (head uint64, a, b, c int32, imm uint64, side int32) {
	head, i := r.wide(p, 0, math.MaxUint64)
	f := p[i]
	i++
	var u uint64
	if f&recA != 0 {
		u, i = r.wide(p, i, math.MaxUint32)
		a = unzigzag32(uint32(u))
	}
	if f&recB != 0 {
		u, i = r.wide(p, i, math.MaxUint32)
		b = unzigzag32(uint32(u))
	}
	if f&recC != 0 {
		u, i = r.wide(p, i, math.MaxUint32)
		c = unzigzag32(uint32(u))
	}
	if f&recImm != 0 {
		imm, i = r.wide(p, i, math.MaxUint64)
	}
	if side = int32(f >> 4); side == sideEscape {
		u, i = r.wide(p, i, math.MaxUint32)
		side = unzigzag32(uint32(u))
	}
	r.off += i
	return
}

// wide reads the varint at p[i:] and returns the offset past it. At
// least 10 bytes remain there, so only a varint that overflows 64 bits
// or exceeds max is an error.
func (r *Reader) wide(p []byte, i int, max uint64) (uint64, int) {
	v, n := binary.Uvarint(p[i:])
	if n <= 0 || v > max {
		r.fail("bad record varint")
		return 0, i + 1
	}
	return v, i + n
}

// recordTail reads a record that starts within MaxRecordLen of the end
// of the input, by decoding a zero-padded copy and then checking that
// the record ended inside the real bytes.
func (r *Reader) recordTail() (head uint64, a, b, c int32, imm uint64, side int32) {
	var pad [2 * MaxRecordLen]byte
	n := copy(pad[:], r.buf[r.off:])
	sub := Reader{buf: pad[:]}
	head, a, b, c, imm, side = sub.Record()
	if sub.err != nil || sub.off > n {
		r.fail("bad or truncated record")
		return 0, 0, 0, 0, 0, 0
	}
	r.off += sub.off
	return
}
