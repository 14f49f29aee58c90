// Package mach is the execution substrate that stands in for native
// machine code in this reproduction. Real Wizard-SPC emits x86-64 into
// executable pages; a Go library cannot portably do that (the JIT would
// fight the Go runtime), so the compilers in this repository emit
// "MachCode": a compact, register-based, linear instruction format run
// by a tight dispatch loop over a 16-entry register file.
//
// MachCode preserves every property the paper measures about baseline-
// compiled code:
//
//   - one dispatch per *machine* instruction rather than per Wasm
//     instruction (local.get/const usually compile to nothing);
//   - explicit register allocation — values live in registers until
//     spilled to the shared value stack;
//   - immediate operand forms (the paper's "instruction selection");
//   - fused compare-and-branch (the paper's peephole optimization);
//   - explicit value-tag stores, so tagging strategies differ in real
//     instruction counts;
//   - a machine-pc ↔ bytecode-pc mapping enabling OSR (tier-up) and
//     deopt (tier-down) at canonical frame states.
package mach

import (
	"fmt"

	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// NumRegs is the size of the register file. Baseline compilers allocate
// from AllocatableRegs; the remainder are assembler temporaries, the
// analog of reserved machine registers (VFP, instance, memory base).
const (
	NumRegs         = 32
	AllocatableRegs = 12
)

// Op is a MachCode opcode.
type Op uint16

// Instruction operand conventions: A is the destination register unless
// stated otherwise; B and C are source registers; Imm carries constants,
// value-stack slot indices (frame-relative), memory offsets, or branch
// targets (machine pcs).
const (
	ONop Op = iota

	// Data movement.
	OConst     // r[A] = Imm
	OMov       // r[A] = r[B]
	OLoadSlot  // r[A] = slots[vfp+Imm]
	OStoreSlot // slots[vfp+Imm] = r[B]
	OStoreSlotConst
	// OStoreSlotConst: slots[vfp+A] = Imm (constant spill without
	// occupying a register — possible because abstract values model
	// constants).
	OStoreTag // tags[vfp+Imm] = Tag(A)
	OSelect   // if r[C] == 0 { r[A] = r[B] } (dst preloaded with true value)

	// Control flow. Imm is the target machine pc.
	OJump
	OBrIfZero    // if u32(r[B]) == 0 jump
	OBrIfNonZero // if u32(r[B]) != 0 jump
	OBrTable     // jump Tables[A][min(u32(r[B]), len-1)]

	// Fused compare-and-branch, i32 (registers B ? C).
	OBrI32Eq
	OBrI32Ne
	OBrI32LtS
	OBrI32LtU
	OBrI32GtS
	OBrI32GtU
	OBrI32LeS
	OBrI32LeU
	OBrI32GeS
	OBrI32GeU
	// Fused compare-and-branch, i32 register B vs constant C.
	OBrI32EqImm
	OBrI32NeImm
	OBrI32LtSImm
	OBrI32LtUImm
	OBrI32GtSImm
	OBrI32GtUImm
	OBrI32LeSImm
	OBrI32LeUImm
	OBrI32GeSImm
	OBrI32GeUImm
	// Fused compare-and-branch, i64 (registers B ? C).
	OBrI64Eq
	OBrI64Ne
	OBrI64LtS
	OBrI64LtU
	OBrI64GtS
	OBrI64GtU
	OBrI64LeS
	OBrI64LeU
	OBrI64GeS
	OBrI64GeU

	// Calls. B is the frame-relative slot of the first argument.
	OCall         // call function index A
	OCallIndirect // call_indirect: type index A, element index in r[C], table index Imm
	OReturn

	// i32 arithmetic, r[A] = r[B] op r[C].
	OI32Add
	OI32Sub
	OI32Mul
	OI32DivS
	OI32DivU
	OI32RemS
	OI32RemU
	OI32And
	OI32Or
	OI32Xor
	OI32Shl
	OI32ShrS
	OI32ShrU
	// i32 arithmetic with immediate, r[A] = r[B] op Imm.
	OI32AddImm
	OI32SubImm
	OI32MulImm
	OI32AndImm
	OI32OrImm
	OI32XorImm
	OI32ShlImm
	OI32ShrSImm
	OI32ShrUImm

	// i64 arithmetic.
	OI64Add
	OI64Sub
	OI64Mul
	OI64DivS
	OI64DivU
	OI64RemS
	OI64RemU
	OI64And
	OI64Or
	OI64Xor
	OI64Shl
	OI64ShrS
	OI64ShrU
	OI64AddImm
	OI64SubImm
	OI64MulImm
	OI64AndImm
	OI64OrImm
	OI64XorImm
	OI64ShlImm
	OI64ShrSImm
	OI64ShrUImm

	// Comparisons producing 0/1 in r[A].
	OI32Eqz
	OI32Eq
	OI32Ne
	OI32LtS
	OI32LtU
	OI32GtS
	OI32GtU
	OI32LeS
	OI32LeU
	OI32GeS
	OI32GeU
	OI64Eqz
	OI64Eq
	OI64Ne
	OI64LtS
	OI64LtU
	OI64GtS
	OI64GtU
	OI64LeS
	OI64LeU
	OI64GeS
	OI64GeU
	OF32Eq
	OF32Ne
	OF32Lt
	OF32Gt
	OF32Le
	OF32Ge
	OF64Eq
	OF64Ne
	OF64Lt
	OF64Gt
	OF64Le
	OF64Ge

	// f32 arithmetic.
	OF32Add
	OF32Sub
	OF32Mul
	OF32Div
	OF32Min
	OF32Max
	OF32Neg
	OF32Abs
	OF32Sqrt

	// f64 arithmetic.
	OF64Add
	OF64Sub
	OF64Mul
	OF64Div
	OF64Min
	OF64Max
	OF64Neg
	OF64Abs
	OF64Sqrt

	// Common conversions.
	OI32WrapI64
	OI64ExtendI32S
	OI64ExtendI32U
	OF64ConvertI32S
	OF64ConvertI32U
	OF64ConvertI64S
	OF64ConvertI64U
	OF32ConvertI32S
	OF32DemoteF64
	OF64PromoteF32
	// Trapping truncations.
	OI32TruncF64S
	OI32TruncF64U
	OI64TruncF64S
	OI64TruncF64U
	OI32TruncF32S
	OI32TruncF32U
	OI64TruncF32S
	OI64TruncF32U

	// Generic fallbacks for the long tail of numeric ops: Imm holds the
	// Wasm opcode, evaluated via the shared scalar semantics.
	OGen1 // r[A] = eval(Imm, r[B])
	OGen2 // r[A] = eval(Imm, r[B], r[C])

	// Memory. Address register B, static offset Imm, value register C
	// for stores / destination A for loads.
	OLd8S32
	OLd8U32
	OLd16S32
	OLd16U32
	OLd32
	OLd8S64
	OLd8U64
	OLd16S64
	OLd16U64
	OLd32S64
	OLd32U64
	OLd64
	OSt8
	OSt16
	OSt32
	OSt64
	OMemSize // r[A] = pages
	OMemGrow // r[A] = grow(r[B])
	OMemCopy // dst r[A], src r[B], len r[C]
	OMemFill // dst r[A], val r[B], len r[C]

	// Globals. Imm is the global index.
	OGlobalGet // r[A] = globals[Imm]
	OGlobalSet // globals[Imm] = r[B], tag = Tag(C)

	// Traps and tier transitions.
	OTrap       // trap kind A at wasm pc Imm
	OCheckPoint // loop header: OSR entry / deopt check at wasm pc Imm
	OUnreachable

	// Instrumentation.
	OProbeFire    // fire probes at wasm pc Imm via the runtime (slow path)
	OProbeCounter // Probes[A].(*rt.CounterProbe).Count++
	OProbeTos     // Probes[A].(TosProbe).FireTos(slots[vfp+Imm])

	opCount
)

// Instr is one MachCode instruction.
type Instr struct {
	Op      Op
	A, B, C int32
	Imm     uint64
}

// Code is a compiled function body plus the metadata needed for
// integration: pc mapping, OSR entries, stackmaps, probe references.
type Code struct {
	FuncIdx uint32
	Name    string
	Instrs  []Instr
	// WasmPC maps each machine pc to the bytecode offset of the Wasm
	// instruction it belongs to, for trap attribution and deopt.
	WasmPC []int32
	// OSREntries maps a Wasm loop-header pc to the machine pc of its
	// checkpoint, where the frame is canonical (everything spilled).
	OSREntries map[int]int
	// Tables holds br_table target vectors.
	Tables [][]int32
	// Counters and TosProbes hold probe references for the
	// intrinsified probe instructions (the paper's "optjit" path).
	Counters  []*rt.CounterProbe
	TosProbes []rt.TosProbe
	// Stackmaps maps a call-site wasm pc to the frame-relative slots
	// holding live references (only populated by MAP-feature
	// compilers; TAG engines need none — the paper's space argument).
	Stackmaps map[int][]int32
	// NumSlots is the frame size in value-stack slots.
	NumSlots int
	// NumResults is the function's result count.
	NumResults int
	// NumParams is the function's parameter count.
	NumParams int
	// LocalTypes as in validate.FuncInfo, for zeroing locals on entry.
	LocalTypes []wasm.ValueType
	// Invalidated is set by the engine when instrumentation forces
	// tier-down; checkpoints observe it.
	Invalidated bool
	// CodeBytes approximates the emitted machine-code size in bytes
	// (for compile-speed accounting): one MachCode instruction stands
	// for one machine instruction.
	CodeBytes int
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint16(op))
}

var opNames = [opCount]string{
	ONop: "nop", OConst: "const", OMov: "mov", OLoadSlot: "load_slot",
	OStoreSlot: "store_slot", OStoreSlotConst: "store_slot_const",
	OStoreTag: "store_tag", OSelect: "select",
	OJump: "jump", OBrIfZero: "br_if_zero", OBrIfNonZero: "br_if_nonzero",
	OBrTable: "br_table",
	OBrI32Eq: "br_i32.eq", OBrI32Ne: "br_i32.ne", OBrI32LtS: "br_i32.lt_s",
	OBrI32LtU: "br_i32.lt_u", OBrI32GtS: "br_i32.gt_s", OBrI32GtU: "br_i32.gt_u",
	OBrI32LeS: "br_i32.le_s", OBrI32LeU: "br_i32.le_u", OBrI32GeS: "br_i32.ge_s",
	OBrI32GeU:   "br_i32.ge_u",
	OBrI32EqImm: "br_i32.eq_imm", OBrI32NeImm: "br_i32.ne_imm",
	OBrI32LtSImm: "br_i32.lt_s_imm", OBrI32LtUImm: "br_i32.lt_u_imm",
	OBrI32GtSImm: "br_i32.gt_s_imm", OBrI32GtUImm: "br_i32.gt_u_imm",
	OBrI32LeSImm: "br_i32.le_s_imm", OBrI32LeUImm: "br_i32.le_u_imm",
	OBrI32GeSImm: "br_i32.ge_s_imm", OBrI32GeUImm: "br_i32.ge_u_imm",
	OBrI64Eq: "br_i64.eq", OBrI64Ne: "br_i64.ne", OBrI64LtS: "br_i64.lt_s",
	OBrI64LtU: "br_i64.lt_u", OBrI64GtS: "br_i64.gt_s", OBrI64GtU: "br_i64.gt_u",
	OBrI64LeS: "br_i64.le_s", OBrI64LeU: "br_i64.le_u", OBrI64GeS: "br_i64.ge_s",
	OBrI64GeU: "br_i64.ge_u",
	OCall:     "call", OCallIndirect: "call_indirect", OReturn: "return",
	OI32Add: "i32.add", OI32Sub: "i32.sub", OI32Mul: "i32.mul",
	OI32DivS: "i32.div_s", OI32DivU: "i32.div_u", OI32RemS: "i32.rem_s",
	OI32RemU: "i32.rem_u", OI32And: "i32.and", OI32Or: "i32.or",
	OI32Xor: "i32.xor", OI32Shl: "i32.shl", OI32ShrS: "i32.shr_s",
	OI32ShrU:   "i32.shr_u",
	OI32AddImm: "i32.add_imm", OI32SubImm: "i32.sub_imm", OI32MulImm: "i32.mul_imm",
	OI32AndImm: "i32.and_imm", OI32OrImm: "i32.or_imm", OI32XorImm: "i32.xor_imm",
	OI32ShlImm: "i32.shl_imm", OI32ShrSImm: "i32.shr_s_imm", OI32ShrUImm: "i32.shr_u_imm",
	OI64Add: "i64.add", OI64Sub: "i64.sub", OI64Mul: "i64.mul",
	OI64DivS: "i64.div_s", OI64DivU: "i64.div_u", OI64RemS: "i64.rem_s",
	OI64RemU: "i64.rem_u", OI64And: "i64.and", OI64Or: "i64.or",
	OI64Xor: "i64.xor", OI64Shl: "i64.shl", OI64ShrS: "i64.shr_s",
	OI64ShrU:   "i64.shr_u",
	OI64AddImm: "i64.add_imm", OI64SubImm: "i64.sub_imm", OI64MulImm: "i64.mul_imm",
	OI64AndImm: "i64.and_imm", OI64OrImm: "i64.or_imm", OI64XorImm: "i64.xor_imm",
	OI64ShlImm: "i64.shl_imm", OI64ShrSImm: "i64.shr_s_imm", OI64ShrUImm: "i64.shr_u_imm",
	OI32Eqz: "i32.eqz", OI32Eq: "i32.eq", OI32Ne: "i32.ne", OI32LtS: "i32.lt_s",
	OI32LtU: "i32.lt_u", OI32GtS: "i32.gt_s", OI32GtU: "i32.gt_u",
	OI32LeS: "i32.le_s", OI32LeU: "i32.le_u", OI32GeS: "i32.ge_s", OI32GeU: "i32.ge_u",
	OI64Eqz: "i64.eqz", OI64Eq: "i64.eq", OI64Ne: "i64.ne", OI64LtS: "i64.lt_s",
	OI64LtU: "i64.lt_u", OI64GtS: "i64.gt_s", OI64GtU: "i64.gt_u",
	OI64LeS: "i64.le_s", OI64LeU: "i64.le_u", OI64GeS: "i64.ge_s", OI64GeU: "i64.ge_u",
	OF32Eq: "f32.eq", OF32Ne: "f32.ne", OF32Lt: "f32.lt", OF32Gt: "f32.gt",
	OF32Le: "f32.le", OF32Ge: "f32.ge",
	OF64Eq: "f64.eq", OF64Ne: "f64.ne", OF64Lt: "f64.lt", OF64Gt: "f64.gt",
	OF64Le: "f64.le", OF64Ge: "f64.ge",
	OF32Add: "f32.add", OF32Sub: "f32.sub", OF32Mul: "f32.mul", OF32Div: "f32.div",
	OF32Min: "f32.min", OF32Max: "f32.max", OF32Neg: "f32.neg", OF32Abs: "f32.abs",
	OF32Sqrt: "f32.sqrt",
	OF64Add:  "f64.add", OF64Sub: "f64.sub", OF64Mul: "f64.mul", OF64Div: "f64.div",
	OF64Min: "f64.min", OF64Max: "f64.max", OF64Neg: "f64.neg", OF64Abs: "f64.abs",
	OF64Sqrt:    "f64.sqrt",
	OI32WrapI64: "i32.wrap_i64", OI64ExtendI32S: "i64.extend_i32_s",
	OI64ExtendI32U:  "i64.extend_i32_u",
	OF64ConvertI32S: "f64.convert_i32_s", OF64ConvertI32U: "f64.convert_i32_u",
	OF64ConvertI64S: "f64.convert_i64_s", OF64ConvertI64U: "f64.convert_i64_u",
	OF32ConvertI32S: "f32.convert_i32_s", OF32DemoteF64: "f32.demote_f64",
	OF64PromoteF32: "f64.promote_f32",
	OI32TruncF64S:  "i32.trunc_f64_s", OI32TruncF64U: "i32.trunc_f64_u",
	OI64TruncF64S: "i64.trunc_f64_s", OI64TruncF64U: "i64.trunc_f64_u",
	OI32TruncF32S: "i32.trunc_f32_s", OI32TruncF32U: "i32.trunc_f32_u",
	OI64TruncF32S: "i64.trunc_f32_s", OI64TruncF32U: "i64.trunc_f32_u",
	OGen1: "gen1", OGen2: "gen2",
	OLd8S32: "ld8_s32", OLd8U32: "ld8_u32", OLd16S32: "ld16_s32",
	OLd16U32: "ld16_u32", OLd32: "ld32", OLd8S64: "ld8_s64", OLd8U64: "ld8_u64",
	OLd16S64: "ld16_s64", OLd16U64: "ld16_u64", OLd32S64: "ld32_s64",
	OLd32U64: "ld32_u64", OLd64: "ld64",
	OSt8: "st8", OSt16: "st16", OSt32: "st32", OSt64: "st64",
	OMemSize: "mem.size", OMemGrow: "mem.grow", OMemCopy: "mem.copy",
	OMemFill:   "mem.fill",
	OGlobalGet: "global.get", OGlobalSet: "global.set",
	OTrap: "trap", OCheckPoint: "checkpoint", OUnreachable: "unreachable",
	OProbeFire: "probe.fire", OProbeCounter: "probe.counter", OProbeTos: "probe.tos",
}

// String renders an instruction in the disassembly style used by the
// Figure 1 golden test.
func (in Instr) String() string {
	switch in.Op {
	case OConst:
		return fmt.Sprintf("%-16s r%d, #%d", in.Op, in.A, int64(in.Imm))
	case OMov:
		return fmt.Sprintf("%-16s r%d, r%d", in.Op, in.A, in.B)
	case OLoadSlot:
		return fmt.Sprintf("%-16s r%d, [vfp+%d]", in.Op, in.A, in.Imm)
	case OStoreSlot:
		return fmt.Sprintf("%-16s [vfp+%d], r%d", in.Op, in.Imm, in.B)
	case OStoreSlotConst:
		return fmt.Sprintf("%-16s [vfp+%d], #%d", in.Op, in.A, int64(in.Imm))
	case OStoreTag:
		return fmt.Sprintf("%-16s [vfp+%d], %v", in.Op, in.Imm, wasm.Tag(in.A))
	case OJump:
		return fmt.Sprintf("%-16s @%d", in.Op, in.Imm)
	case OBrIfZero, OBrIfNonZero:
		return fmt.Sprintf("%-16s r%d, @%d", in.Op, in.B, in.Imm)
	case OCall:
		return fmt.Sprintf("%-16s func%d, args@%d", in.Op, in.A, in.B)
	case OCallIndirect:
		return fmt.Sprintf("%-16s sig%d, r%d, args@%d", in.Op, in.A, in.C, in.B)
	case OReturn:
		return "return"
	case OGlobalGet:
		return fmt.Sprintf("%-16s r%d, global%d", in.Op, in.A, in.Imm)
	case OGlobalSet:
		return fmt.Sprintf("%-16s global%d, r%d", in.Op, in.Imm, in.B)
	case OTrap:
		return fmt.Sprintf("%-16s %v", in.Op, rt.TrapKind(in.A))
	case OCheckPoint:
		return fmt.Sprintf("%-16s wasm@%d", in.Op, in.Imm)
	case OLd8S32, OLd8U32, OLd16S32, OLd16U32, OLd32, OLd8S64, OLd8U64,
		OLd16S64, OLd16U64, OLd32S64, OLd32U64, OLd64:
		return fmt.Sprintf("%-16s r%d, [r%d+%d]", in.Op, in.A, in.B, in.Imm)
	case OSt8, OSt16, OSt32, OSt64:
		return fmt.Sprintf("%-16s [r%d+%d], r%d", in.Op, in.B, in.Imm, in.C)
	case OI32AddImm, OI32SubImm, OI32MulImm, OI32AndImm, OI32OrImm, OI32XorImm,
		OI32ShlImm, OI32ShrSImm, OI32ShrUImm,
		OI64AddImm, OI64SubImm, OI64MulImm, OI64AndImm, OI64OrImm, OI64XorImm,
		OI64ShlImm, OI64ShrSImm, OI64ShrUImm:
		return fmt.Sprintf("%-16s r%d, r%d, #%d", in.Op, in.A, in.B, int64(in.Imm))
	case OBrI32EqImm, OBrI32NeImm, OBrI32LtSImm, OBrI32LtUImm, OBrI32GtSImm,
		OBrI32GtUImm, OBrI32LeSImm, OBrI32LeUImm, OBrI32GeSImm, OBrI32GeUImm:
		return fmt.Sprintf("%-16s r%d, #%d, @%d", in.Op, in.B, in.C, in.Imm)
	case OBrI32Eq, OBrI32Ne, OBrI32LtS, OBrI32LtU, OBrI32GtS, OBrI32GtU,
		OBrI32LeS, OBrI32LeU, OBrI32GeS, OBrI32GeU,
		OBrI64Eq, OBrI64Ne, OBrI64LtS, OBrI64LtU, OBrI64GtS, OBrI64GtU,
		OBrI64LeS, OBrI64LeU, OBrI64GeS, OBrI64GeU:
		return fmt.Sprintf("%-16s r%d, r%d, @%d", in.Op, in.B, in.C, in.Imm)
	case OGen1:
		return fmt.Sprintf("%-16s r%d, r%d (%v)", in.Op, in.A, in.B, wasm.Opcode(in.Imm))
	case OGen2:
		return fmt.Sprintf("%-16s r%d, r%d, r%d (%v)", in.Op, in.A, in.B, in.C, wasm.Opcode(in.Imm))
	default:
		if in.B != 0 || in.C != 0 {
			return fmt.Sprintf("%-16s r%d, r%d, r%d", in.Op, in.A, in.B, in.C)
		}
		return fmt.Sprintf("%-16s r%d", in.Op, in.A)
	}
}

// Disassemble renders the whole code object, one instruction per line
// with machine pcs, in the style of Figure 1.
func (c *Code) Disassemble() string {
	s := ""
	for pc, in := range c.Instrs {
		s += fmt.Sprintf("%4d: %s\n", pc, in.String())
	}
	return s
}
