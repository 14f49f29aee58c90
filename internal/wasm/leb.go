package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decoding errors shared by the LEB reader and the module decoder.
var (
	ErrUnexpectedEOF = errors.New("wasm: unexpected end of section or function")
	ErrLEBTooLong    = errors.New("wasm: integer representation too long")
)

// Reader is a cursor over a byte slice with LEB128 primitives. It is used
// by the binary decoder, the validator, and anything that walks raw
// bytecode (the in-place interpreter decodes immediates with the same
// routines via the precomputed forms below).
type Reader struct {
	Bytes []byte
	Pos   int
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) *Reader { return &Reader{Bytes: b} }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.Bytes) - r.Pos }

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.Pos >= len(r.Bytes) {
		return 0, ErrUnexpectedEOF
	}
	b := r.Bytes[r.Pos]
	r.Pos++
	return b, nil
}

// Take reads n bytes as a subslice of the underlying buffer.
func (r *Reader) Take(n int) ([]byte, error) {
	if n < 0 || r.Pos+n > len(r.Bytes) {
		return nil, ErrUnexpectedEOF
	}
	b := r.Bytes[r.Pos : r.Pos+n]
	r.Pos += n
	return b, nil
}

// U32 reads an unsigned LEB128 32-bit integer. The one-byte form (every
// index below 128) is read inline.
func (r *Reader) U32() (uint32, error) {
	if p := r.Pos; p < len(r.Bytes) {
		if b := r.Bytes[p]; b < 0x80 {
			r.Pos = p + 1
			return uint32(b), nil
		}
	}
	return r.u32()
}

func (r *Reader) u32() (uint32, error) {
	var result uint32
	var shift uint
	for i := 0; i < 5; i++ {
		b, err := r.Byte()
		if err != nil {
			return 0, err
		}
		if i == 4 && b > 0x0F {
			return 0, ErrLEBTooLong
		}
		result |= uint32(b&0x7F) << shift
		if b&0x80 == 0 {
			return result, nil
		}
		shift += 7
	}
	return 0, ErrLEBTooLong
}

// U64 reads an unsigned LEB128 64-bit integer.
func (r *Reader) U64() (uint64, error) {
	var result uint64
	var shift uint
	for i := 0; i < 10; i++ {
		b, err := r.Byte()
		if err != nil {
			return 0, err
		}
		if i == 9 && b > 0x01 {
			return 0, ErrLEBTooLong
		}
		result |= uint64(b&0x7F) << shift
		if b&0x80 == 0 {
			return result, nil
		}
		shift += 7
	}
	return 0, ErrLEBTooLong
}

// S32 reads a signed LEB128 32-bit integer.
func (r *Reader) S32() (int32, error) {
	v, err := r.sleb(32)
	return int32(v), err
}

// S64 reads a signed LEB128 64-bit integer.
func (r *Reader) S64() (int64, error) {
	return r.sleb(64)
}

// S33 reads the signed 33-bit integer used by block types.
func (r *Reader) S33() (int64, error) {
	return r.sleb(33)
}

// sleb decodes with the position in a local: going through r.Pos per
// byte makes every byte wait on the store of the last.
func (r *Reader) sleb(bits uint) (int64, error) {
	var result int64
	var shift uint
	buf, pos := r.Bytes, r.Pos
	for end := pos + int(bits+6)/7; pos < end; {
		if pos >= len(buf) {
			r.Pos = pos
			return 0, ErrUnexpectedEOF
		}
		b := buf[pos]
		pos++
		result |= int64(b&0x7F) << shift
		shift += 7
		if b&0x80 == 0 {
			if shift < 64 && b&0x40 != 0 {
				result |= -1 << shift
			}
			r.Pos = pos
			return result, nil
		}
	}
	r.Pos = pos
	return 0, ErrLEBTooLong
}

// F32 reads a little-endian 32-bit float's bits.
func (r *Reader) F32() (uint32, error) {
	b, err := r.Take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// F64 reads a little-endian 64-bit float's bits.
func (r *Reader) F64() (uint64, error) {
	b, err := r.Take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Name reads a length-prefixed UTF-8 name.
func (r *Reader) Name() (string, error) {
	n, err := r.U32()
	if err != nil {
		return "", err
	}
	b, err := r.Take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendU32 appends v as unsigned LEB128.
func AppendU32(dst []byte, v uint32) []byte {
	for {
		b := byte(v & 0x7F)
		v >>= 7
		if v != 0 {
			b |= 0x80
		}
		dst = append(dst, b)
		if v == 0 {
			return dst
		}
	}
}

// AppendU64 appends v as unsigned LEB128.
func AppendU64(dst []byte, v uint64) []byte {
	for {
		b := byte(v & 0x7F)
		v >>= 7
		if v != 0 {
			b |= 0x80
		}
		dst = append(dst, b)
		if v == 0 {
			return dst
		}
	}
}

// AppendS32 appends v as signed LEB128.
func AppendS32(dst []byte, v int32) []byte { return AppendS64(dst, int64(v)) }

// AppendS64 appends v as signed LEB128.
func AppendS64(dst []byte, v int64) []byte {
	for {
		b := byte(v & 0x7F)
		v >>= 7
		done := (v == 0 && b&0x40 == 0) || (v == -1 && b&0x40 != 0)
		if !done {
			b |= 0x80
		}
		dst = append(dst, b)
		if done {
			return dst
		}
	}
}

// AppendF32 appends 4 little-endian bytes.
func AppendF32(dst []byte, bits uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, bits)
}

// AppendF64 appends 8 little-endian bytes.
func AppendF64(dst []byte, bits uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, bits)
}

// SkipImm advances r past the immediates of op. It is used by code that
// scans bytecode without interpreting it (probe insertion, disassembly
// alignment, the m0 "early return" rewriter in the harness).
func (r *Reader) SkipImm(op Opcode) error {
	switch op.Imm() {
	case ImmNone:
		return nil
	case ImmBlockType:
		_, err := r.S33()
		return err
	case ImmLabel, ImmFunc, ImmLocal, ImmGlobal:
		_, err := r.U32()
		return err
	case ImmCallInd:
		if _, err := r.U32(); err != nil {
			return err
		}
		_, err := r.U32()
		return err
	case ImmBrTable:
		n, err := r.U32()
		if err != nil {
			return err
		}
		for i := uint32(0); i <= n; i++ {
			if _, err := r.U32(); err != nil {
				return err
			}
		}
		return nil
	case ImmMem:
		if _, err := r.U32(); err != nil {
			return err
		}
		_, err := r.U32()
		return err
	case ImmMemOnly, ImmOneMem:
		_, err := r.Byte()
		return err
	case ImmTwoMem:
		if _, err := r.Byte(); err != nil {
			return err
		}
		_, err := r.Byte()
		return err
	case ImmI32:
		_, err := r.S32()
		return err
	case ImmI64:
		_, err := r.S64()
		return err
	case ImmF32:
		_, err := r.F32()
		return err
	case ImmF64:
		_, err := r.F64()
		return err
	case ImmRefType:
		_, err := r.Byte()
		return err
	case ImmSelectT:
		n, err := r.U32()
		if err != nil {
			return err
		}
		_, err = r.Take(int(n))
		return err
	}
	return fmt.Errorf("wasm: unknown immediate kind for %v", op)
}

// ReadOpcode reads the next opcode, folding 0xFC prefixes into the
// extended Opcode space. A prefixed sub-opcode past the table's 0xFC
// page is a decode error here, for every tier at once: folded into a
// uint16 it would wrap onto an unrelated opcode.
func (r *Reader) ReadOpcode() (Opcode, error) {
	b, err := r.Byte()
	if err != nil {
		return 0, err
	}
	if b != PrefixFC {
		return Opcode(b), nil
	}
	sub, err := r.U32()
	if err != nil {
		return 0, err
	}
	if sub >= uint32(numOpcodes)-uint32(opFCBase) {
		return 0, fmt.Errorf("wasm: unknown 0xFC sub-opcode %d", sub)
	}
	return opFCBase + Opcode(sub), nil
}

// AppendOpcode appends the binary encoding of op.
func AppendOpcode(dst []byte, op Opcode) []byte {
	if op < 0x100 {
		return append(dst, byte(op))
	}
	dst = append(dst, PrefixFC)
	return AppendU32(dst, uint32(op-opFCBase))
}
