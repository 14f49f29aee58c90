package rewriter

import (
	"errors"
	"fmt"
	"math"

	"wizgo/internal/wasm"
	"wizgo/internal/wbin"
)

// AppendTo serializes the translated body for the persistent artifact
// cache. Like mach code, the format is self-contained: branch targets
// are absolute indices into the function's own instruction slice.
func (c *Code) AppendTo(w *wbin.Writer) error {
	// One compact record per instruction (see wbin.Record), Target in
	// the third operand; a translated body has no side value.
	w.Uvarint(uint64(len(c.Instrs)))
	for i := range c.Instrs {
		in := &c.Instrs[i]
		w.Record(uint64(in.Op), in.A, in.B, in.Target, in.Imm, 0)
	}
	w.Uvarint(uint64(len(c.Tables)))
	for _, t := range c.Tables {
		w.Uvarint(uint64(len(t)))
		for _, target := range t {
			w.Varint(int64(target))
		}
	}
	w.Uvarint(uint64(c.NumSlots))
	w.Uvarint(uint64(c.NumResults))
	w.Uvarint(uint64(c.NumParams))
	w.Uvarint(uint64(len(c.LocalTypes)))
	for _, t := range c.LocalTypes {
		w.U8(uint8(t))
	}
	w.Uvarint(uint64(c.codeBytes))
	return nil
}

// DecodeArena preallocates one artifact's worth of translated-body
// bulk storage in contiguous blocks, mirroring mach.DecodeArena: the
// artifact header records exact totals so rehydration makes one
// allocation per kind instead of a few per function. A nil or
// exhausted arena degrades to plain allocation.
type DecodeArena struct {
	codes  []Code
	instrs []Instr
	types  []wasm.ValueType
}

// NewDecodeArena sizes an arena for nCodes translated bodies holding
// nInstrs instructions and nTypes local types in total. Callers must
// validate the totals against the input length before trusting them
// with an allocation.
func NewDecodeArena(nCodes, nInstrs, nTypes int) *DecodeArena {
	return &DecodeArena{
		codes:  make([]Code, 0, nCodes),
		instrs: make([]Instr, 0, nInstrs),
		types:  make([]wasm.ValueType, 0, nTypes),
	}
}

func (a *DecodeArena) nextCode() *Code {
	if a == nil || len(a.codes) == cap(a.codes) {
		return &Code{}
	}
	a.codes = a.codes[:len(a.codes)+1]
	return &a.codes[len(a.codes)-1]
}

func (a *DecodeArena) takeInstrs(n int) []Instr {
	if a == nil || len(a.instrs)+n > cap(a.instrs) {
		return make([]Instr, n)
	}
	s := a.instrs[len(a.instrs) : len(a.instrs)+n]
	a.instrs = a.instrs[:len(a.instrs)+n]
	return s
}

func (a *DecodeArena) takeTypes(n int) []wasm.ValueType {
	if a == nil || len(a.types)+n > cap(a.types) {
		return make([]wasm.ValueType, n)
	}
	s := a.types[len(a.types) : len(a.types)+n]
	a.types = a.types[:len(a.types)+n]
	return s
}

// DecodeCode reconstructs a serialized translated body, drawing bulk
// storage from arena (which may be nil). Lengths are validated before
// allocation, and every branch target and br_table index is
// bounds-checked — run indexes code[pc] and Tables[A] unchecked — so
// corrupt input yields an error, never a panic or a wild jump.
func DecodeCode(r *wbin.Reader, arena *DecodeArena) (*Code, error) {
	c := arena.nextCode()
	nInstr := r.Count(wbin.MinRecordLen)
	c.Instrs = arena.takeInstrs(nInstr)
	maxTable := int64(-1)
	for i := range c.Instrs {
		op, a, b, target, imm, _ := r.Record()
		if op > math.MaxUint16 {
			return nil, fmt.Errorf("rewriter: decoded opcode %d out of range", op)
		}
		// Field by field, not an Instr literal: see mach.DecodeCode.
		in := &c.Instrs[i]
		in.Op, in.A, in.B, in.Target, in.Imm = wasm.Opcode(op), a, b, target, imm
		// Branch targets are validated here, inside the decode loop,
		// rather than in a second pass — rehydration traverses the
		// instruction stream exactly once.
		switch in.Op {
		case opBr, opBrIfNZ, opBrIfZ:
			if in.Target < 0 || int(in.Target) >= nInstr {
				return nil, fmt.Errorf("rewriter: instr %d branch target %d out of range", i, in.Target)
			}
		case opBrTableX:
			maxTable = max(maxTable, int64(uint32(in.A)))
		}
	}
	if n := r.Count(1); n > 0 {
		c.Tables = make([][]int32, n)
		for i := range c.Tables {
			m := r.Count(1)
			if m == 0 && r.Err() == nil {
				// opBrTableX clamps its index to len-1.
				return nil, errors.New("rewriter: empty br_table vector")
			}
			c.Tables[i] = make([]int32, m)
			for j := range c.Tables[i] {
				t := r.Varint()
				if t < 0 || t >= int64(len(c.Instrs)) {
					return nil, fmt.Errorf("rewriter: br_table target %d out of range", t)
				}
				c.Tables[i][j] = int32(t)
			}
		}
	}
	if maxTable >= int64(len(c.Tables)) {
		return nil, fmt.Errorf("rewriter: br_table index %d of %d tables", maxTable, len(c.Tables))
	}
	c.NumSlots = int(r.Uvarint())
	c.NumResults = int(r.Uvarint())
	c.NumParams = int(r.Uvarint())
	nLocals := r.Count(1)
	c.LocalTypes = arena.takeTypes(nLocals)
	for i := range c.LocalTypes {
		c.LocalTypes[i] = wasm.ValueType(r.U8())
	}
	c.codeBytes = int(r.Uvarint())

	if err := r.Err(); err != nil {
		return nil, err
	}
	if c.NumSlots < 0 || c.NumResults < 0 || c.NumParams < 0 {
		return nil, errors.New("rewriter: negative frame dimension")
	}
	return c, nil
}
