package spc

import (
	"wizgo/internal/mach"
	"wizgo/internal/wasm"
)

// aval is the abstract value of one frame slot (local or operand),
// Figure 1's per-slot state: register assignment, constant knowledge,
// spill state, and tag freshness.
type aval struct {
	typ      wasm.ValueType
	reg      int8 // register caching this slot's value, or -1
	isConst  bool
	konst    uint64
	inMem    bool // slots[vfp+i] holds the current value
	tagFresh bool // tags[vfp+i] holds the current tag
}

const noReg = int8(-1)

// scratchReg is the reserved assembler temporary (the analog of a
// scratch machine register like r11): never allocated, never pinned, so
// it is always safe for short move sequences without regalloc traffic.
const scratchReg = int32(mach.NumRegs - 1)

// regFile tracks register occupancy. refs counts how many live slots
// reference each register; with MultiReg a register may cache several
// slots (feature "MR"), without it at most one.
type regFile struct {
	refs   [mach.NumRegs]int16
	cursor int
	limit  int
}

func (r *regFile) reset() {
	for i := range r.refs {
		r.refs[i] = 0
	}
	r.cursor = 0
}

// tryAlloc returns a free register or -1, searching round-robin from
// the cursor (always below limit).
func (r *regFile) tryAlloc() int8 {
	reg := r.cursor
	for i := 0; i < r.limit; i++ {
		next := reg + 1
		if next == r.limit {
			next = 0
		}
		if r.refs[reg] == 0 {
			r.cursor = next
			r.refs[reg] = 1
			return int8(reg)
		}
		reg = next
	}
	return noReg
}

// victim picks a register to spill, round-robin.
func (r *regFile) victim() int8 {
	v := int8(r.cursor % r.limit)
	r.cursor = (int(v) + 1) % r.limit
	return v
}

func (r *regFile) retain(reg int8)  { r.refs[reg]++ }
func (r *regFile) release(reg int8) { r.refs[reg]-- }

// state is the compiler's abstract machine state: one aval per frame
// slot plus the register file. Slots 0..numLocals-1 are locals; operand
// slot i lives at numLocals+i. h is the operand stack height.
type state struct {
	avals []aval
	h     int
	regs  regFile
}

// restore overwrites s with a previously taken snapshot.
func (s *state) restore(from *state) {
	copy(s.avals, from.avals)
	s.h = from.h
	s.regs = from.regs
}

// releaseVal drops a popped value's register reference.
func (s *state) releaseVal(v *aval) {
	if v.reg != noReg {
		s.regs.release(v.reg)
		v.reg = noReg
	}
}

// pendingCmp is a compare whose emission is deferred one instruction so
// a following br_if/if can fuse it (the paper's peephole optimization).
// Its operand registers stay referenced until emitted or fused.
type pendingCmp struct {
	op       wasm.Opcode // the wasm comparison (or i32.eqz)
	rb, rc   int8        // operand registers (rc unused when imm form)
	imm      uint64
	isImm    bool
	resType  wasm.ValueType // always i32
	operandB wasm.ValueType // i32 or i64 comparison width
}

// fusedBr maps a wasm compare opcode to the fused branch-if-true
// MachCode op, for i32 and i64 widths, register and immediate forms.
func fusedBr(op wasm.Opcode, width wasm.ValueType, isImm bool) (mach.Op, bool) {
	if width == wasm.I64 {
		if isImm {
			return 0, false
		}
		switch op {
		case wasm.OpI64Eq:
			return mach.OBrI64Eq, true
		case wasm.OpI64Ne:
			return mach.OBrI64Ne, true
		case wasm.OpI64LtS:
			return mach.OBrI64LtS, true
		case wasm.OpI64LtU:
			return mach.OBrI64LtU, true
		case wasm.OpI64GtS:
			return mach.OBrI64GtS, true
		case wasm.OpI64GtU:
			return mach.OBrI64GtU, true
		case wasm.OpI64LeS:
			return mach.OBrI64LeS, true
		case wasm.OpI64LeU:
			return mach.OBrI64LeU, true
		case wasm.OpI64GeS:
			return mach.OBrI64GeS, true
		case wasm.OpI64GeU:
			return mach.OBrI64GeU, true
		}
		return 0, false
	}
	if isImm {
		switch op {
		case wasm.OpI32Eq:
			return mach.OBrI32EqImm, true
		case wasm.OpI32Ne:
			return mach.OBrI32NeImm, true
		case wasm.OpI32LtS:
			return mach.OBrI32LtSImm, true
		case wasm.OpI32LtU:
			return mach.OBrI32LtUImm, true
		case wasm.OpI32GtS:
			return mach.OBrI32GtSImm, true
		case wasm.OpI32GtU:
			return mach.OBrI32GtUImm, true
		case wasm.OpI32LeS:
			return mach.OBrI32LeSImm, true
		case wasm.OpI32LeU:
			return mach.OBrI32LeUImm, true
		case wasm.OpI32GeS:
			return mach.OBrI32GeSImm, true
		case wasm.OpI32GeU:
			return mach.OBrI32GeUImm, true
		}
		return 0, false
	}
	switch op {
	case wasm.OpI32Eq:
		return mach.OBrI32Eq, true
	case wasm.OpI32Ne:
		return mach.OBrI32Ne, true
	case wasm.OpI32LtS:
		return mach.OBrI32LtS, true
	case wasm.OpI32LtU:
		return mach.OBrI32LtU, true
	case wasm.OpI32GtS:
		return mach.OBrI32GtS, true
	case wasm.OpI32GtU:
		return mach.OBrI32GtU, true
	case wasm.OpI32LeS:
		return mach.OBrI32LeS, true
	case wasm.OpI32LeU:
		return mach.OBrI32LeU, true
	case wasm.OpI32GeS:
		return mach.OBrI32GeS, true
	case wasm.OpI32GeU:
		return mach.OBrI32GeU, true
	}
	return 0, false
}

// invertCmp returns the comparison testing the opposite condition, used
// when an `if` needs to branch to its else-arm on false.
func invertCmp(op wasm.Opcode) wasm.Opcode {
	switch op {
	case wasm.OpI32Eq:
		return wasm.OpI32Ne
	case wasm.OpI32Ne:
		return wasm.OpI32Eq
	case wasm.OpI32LtS:
		return wasm.OpI32GeS
	case wasm.OpI32LtU:
		return wasm.OpI32GeU
	case wasm.OpI32GtS:
		return wasm.OpI32LeS
	case wasm.OpI32GtU:
		return wasm.OpI32LeU
	case wasm.OpI32LeS:
		return wasm.OpI32GtS
	case wasm.OpI32LeU:
		return wasm.OpI32GtU
	case wasm.OpI32GeS:
		return wasm.OpI32LtS
	case wasm.OpI32GeU:
		return wasm.OpI32LtU
	case wasm.OpI64Eq:
		return wasm.OpI64Ne
	case wasm.OpI64Ne:
		return wasm.OpI64Eq
	case wasm.OpI64LtS:
		return wasm.OpI64GeS
	case wasm.OpI64LtU:
		return wasm.OpI64GeU
	case wasm.OpI64GtS:
		return wasm.OpI64LeS
	case wasm.OpI64GtU:
		return wasm.OpI64LeU
	case wasm.OpI64LeS:
		return wasm.OpI64GtS
	case wasm.OpI64LeU:
		return wasm.OpI64GtU
	case wasm.OpI64GeS:
		return wasm.OpI64LtS
	case wasm.OpI64GeU:
		return wasm.OpI64LtU
	}
	return 0
}

// immForm maps a wasm binary opcode to its immediate-mode MachCode op
// (feature "ISEL"). Only commutative-or-rhs-immediate forms exist, like
// real ISAs.
func immForm(op wasm.Opcode) (mach.Op, bool) {
	switch op {
	case wasm.OpI32Add:
		return mach.OI32AddImm, true
	case wasm.OpI32Sub:
		return mach.OI32SubImm, true
	case wasm.OpI32Mul:
		return mach.OI32MulImm, true
	case wasm.OpI32And:
		return mach.OI32AndImm, true
	case wasm.OpI32Or:
		return mach.OI32OrImm, true
	case wasm.OpI32Xor:
		return mach.OI32XorImm, true
	case wasm.OpI32Shl:
		return mach.OI32ShlImm, true
	case wasm.OpI32ShrS:
		return mach.OI32ShrSImm, true
	case wasm.OpI32ShrU:
		return mach.OI32ShrUImm, true
	case wasm.OpI64Add:
		return mach.OI64AddImm, true
	case wasm.OpI64Sub:
		return mach.OI64SubImm, true
	case wasm.OpI64Mul:
		return mach.OI64MulImm, true
	case wasm.OpI64And:
		return mach.OI64AndImm, true
	case wasm.OpI64Or:
		return mach.OI64OrImm, true
	case wasm.OpI64Xor:
		return mach.OI64XorImm, true
	case wasm.OpI64Shl:
		return mach.OI64ShlImm, true
	case wasm.OpI64ShrS:
		return mach.OI64ShrSImm, true
	case wasm.OpI64ShrU:
		return mach.OI64ShrUImm, true
	}
	return 0, false
}

// regForm maps a wasm binary opcode to its register MachCode op for the
// dedicated hot set; the remainder go through OGen2.
func regForm(op wasm.Opcode) (mach.Op, bool) {
	switch op {
	case wasm.OpI32Add:
		return mach.OI32Add, true
	case wasm.OpI32Sub:
		return mach.OI32Sub, true
	case wasm.OpI32Mul:
		return mach.OI32Mul, true
	case wasm.OpI32DivS:
		return mach.OI32DivS, true
	case wasm.OpI32DivU:
		return mach.OI32DivU, true
	case wasm.OpI32RemS:
		return mach.OI32RemS, true
	case wasm.OpI32RemU:
		return mach.OI32RemU, true
	case wasm.OpI32And:
		return mach.OI32And, true
	case wasm.OpI32Or:
		return mach.OI32Or, true
	case wasm.OpI32Xor:
		return mach.OI32Xor, true
	case wasm.OpI32Shl:
		return mach.OI32Shl, true
	case wasm.OpI32ShrS:
		return mach.OI32ShrS, true
	case wasm.OpI32ShrU:
		return mach.OI32ShrU, true
	case wasm.OpI64Add:
		return mach.OI64Add, true
	case wasm.OpI64Sub:
		return mach.OI64Sub, true
	case wasm.OpI64Mul:
		return mach.OI64Mul, true
	case wasm.OpI64DivS:
		return mach.OI64DivS, true
	case wasm.OpI64DivU:
		return mach.OI64DivU, true
	case wasm.OpI64RemS:
		return mach.OI64RemS, true
	case wasm.OpI64RemU:
		return mach.OI64RemU, true
	case wasm.OpI64And:
		return mach.OI64And, true
	case wasm.OpI64Or:
		return mach.OI64Or, true
	case wasm.OpI64Xor:
		return mach.OI64Xor, true
	case wasm.OpI64Shl:
		return mach.OI64Shl, true
	case wasm.OpI64ShrS:
		return mach.OI64ShrS, true
	case wasm.OpI64ShrU:
		return mach.OI64ShrU, true
	case wasm.OpI32Eq:
		return mach.OI32Eq, true
	case wasm.OpI32Ne:
		return mach.OI32Ne, true
	case wasm.OpI32LtS:
		return mach.OI32LtS, true
	case wasm.OpI32LtU:
		return mach.OI32LtU, true
	case wasm.OpI32GtS:
		return mach.OI32GtS, true
	case wasm.OpI32GtU:
		return mach.OI32GtU, true
	case wasm.OpI32LeS:
		return mach.OI32LeS, true
	case wasm.OpI32LeU:
		return mach.OI32LeU, true
	case wasm.OpI32GeS:
		return mach.OI32GeS, true
	case wasm.OpI32GeU:
		return mach.OI32GeU, true
	case wasm.OpI64Eq:
		return mach.OI64Eq, true
	case wasm.OpI64Ne:
		return mach.OI64Ne, true
	case wasm.OpI64LtS:
		return mach.OI64LtS, true
	case wasm.OpI64LtU:
		return mach.OI64LtU, true
	case wasm.OpI64GtS:
		return mach.OI64GtS, true
	case wasm.OpI64GtU:
		return mach.OI64GtU, true
	case wasm.OpI64LeS:
		return mach.OI64LeS, true
	case wasm.OpI64LeU:
		return mach.OI64LeU, true
	case wasm.OpI64GeS:
		return mach.OI64GeS, true
	case wasm.OpI64GeU:
		return mach.OI64GeU, true
	case wasm.OpF32Eq:
		return mach.OF32Eq, true
	case wasm.OpF32Ne:
		return mach.OF32Ne, true
	case wasm.OpF32Lt:
		return mach.OF32Lt, true
	case wasm.OpF32Gt:
		return mach.OF32Gt, true
	case wasm.OpF32Le:
		return mach.OF32Le, true
	case wasm.OpF32Ge:
		return mach.OF32Ge, true
	case wasm.OpF64Eq:
		return mach.OF64Eq, true
	case wasm.OpF64Ne:
		return mach.OF64Ne, true
	case wasm.OpF64Lt:
		return mach.OF64Lt, true
	case wasm.OpF64Gt:
		return mach.OF64Gt, true
	case wasm.OpF64Le:
		return mach.OF64Le, true
	case wasm.OpF64Ge:
		return mach.OF64Ge, true
	case wasm.OpF32Add:
		return mach.OF32Add, true
	case wasm.OpF32Sub:
		return mach.OF32Sub, true
	case wasm.OpF32Mul:
		return mach.OF32Mul, true
	case wasm.OpF32Div:
		return mach.OF32Div, true
	case wasm.OpF32Min:
		return mach.OF32Min, true
	case wasm.OpF32Max:
		return mach.OF32Max, true
	case wasm.OpF64Add:
		return mach.OF64Add, true
	case wasm.OpF64Sub:
		return mach.OF64Sub, true
	case wasm.OpF64Mul:
		return mach.OF64Mul, true
	case wasm.OpF64Div:
		return mach.OF64Div, true
	case wasm.OpF64Min:
		return mach.OF64Min, true
	case wasm.OpF64Max:
		return mach.OF64Max, true
	}
	return 0, false
}

// unForm maps a wasm unary opcode to its dedicated MachCode op; the
// remainder go through OGen1.
func unForm(op wasm.Opcode) (mach.Op, bool) {
	switch op {
	case wasm.OpI32Eqz:
		return mach.OI32Eqz, true
	case wasm.OpI64Eqz:
		return mach.OI64Eqz, true
	case wasm.OpF32Neg:
		return mach.OF32Neg, true
	case wasm.OpF32Abs:
		return mach.OF32Abs, true
	case wasm.OpF32Sqrt:
		return mach.OF32Sqrt, true
	case wasm.OpF64Neg:
		return mach.OF64Neg, true
	case wasm.OpF64Abs:
		return mach.OF64Abs, true
	case wasm.OpF64Sqrt:
		return mach.OF64Sqrt, true
	case wasm.OpI32WrapI64:
		return mach.OI32WrapI64, true
	case wasm.OpI64ExtendI32S:
		return mach.OI64ExtendI32S, true
	case wasm.OpI64ExtendI32U:
		return mach.OI64ExtendI32U, true
	case wasm.OpF64ConvertI32S:
		return mach.OF64ConvertI32S, true
	case wasm.OpF64ConvertI32U:
		return mach.OF64ConvertI32U, true
	case wasm.OpF64ConvertI64S:
		return mach.OF64ConvertI64S, true
	case wasm.OpF64ConvertI64U:
		return mach.OF64ConvertI64U, true
	case wasm.OpF32ConvertI32S:
		return mach.OF32ConvertI32S, true
	case wasm.OpF32DemoteF64:
		return mach.OF32DemoteF64, true
	case wasm.OpF64PromoteF32:
		return mach.OF64PromoteF32, true
	case wasm.OpI32TruncF64S:
		return mach.OI32TruncF64S, true
	case wasm.OpI32TruncF64U:
		return mach.OI32TruncF64U, true
	case wasm.OpI64TruncF64S:
		return mach.OI64TruncF64S, true
	case wasm.OpI64TruncF64U:
		return mach.OI64TruncF64U, true
	case wasm.OpI32TruncF32S:
		return mach.OI32TruncF32S, true
	case wasm.OpI32TruncF32U:
		return mach.OI32TruncF32U, true
	case wasm.OpI64TruncF32S:
		return mach.OI64TruncF32S, true
	case wasm.OpI64TruncF32U:
		return mach.OI64TruncF32U, true
	}
	return 0, false
}

// loadForm maps a wasm load opcode to (MachCode op, result type).
func loadForm(op wasm.Opcode) (mach.Op, wasm.ValueType) {
	switch op {
	case wasm.OpI32Load:
		return mach.OLd32, wasm.I32
	case wasm.OpI64Load:
		return mach.OLd64, wasm.I64
	case wasm.OpF32Load:
		return mach.OLd32, wasm.F32
	case wasm.OpF64Load:
		return mach.OLd64, wasm.F64
	case wasm.OpI32Load8S:
		return mach.OLd8S32, wasm.I32
	case wasm.OpI32Load8U:
		return mach.OLd8U32, wasm.I32
	case wasm.OpI32Load16S:
		return mach.OLd16S32, wasm.I32
	case wasm.OpI32Load16U:
		return mach.OLd16U32, wasm.I32
	case wasm.OpI64Load8S:
		return mach.OLd8S64, wasm.I64
	case wasm.OpI64Load8U:
		return mach.OLd8U64, wasm.I64
	case wasm.OpI64Load16S:
		return mach.OLd16S64, wasm.I64
	case wasm.OpI64Load16U:
		return mach.OLd16U64, wasm.I64
	case wasm.OpI64Load32S:
		return mach.OLd32S64, wasm.I64
	case wasm.OpI64Load32U:
		return mach.OLd32U64, wasm.I64
	}
	return 0, 0
}

// storeForm maps a wasm store opcode to its MachCode op.
func storeForm(op wasm.Opcode) mach.Op {
	switch op {
	case wasm.OpI32Store, wasm.OpF32Store:
		return mach.OSt32
	case wasm.OpI64Store, wasm.OpF64Store:
		return mach.OSt64
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return mach.OSt8
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return mach.OSt16
	case wasm.OpI64Store32:
		return mach.OSt32
	}
	return 0
}
