// Package copypatch implements a template-based baseline compiler in the
// style of WasmNow / Copy&Patch (Xu & Kjolstad, OOPSLA 2021): for each
// Wasm instruction a pre-made machine-code template is stamped out with
// its immediates patched in. There is no abstract state beyond the stack
// height — no register allocation decisions, no constant tracking, no
// snapshots. Because the frame is always canonical, calls need no spill
// code at all.
//
// The paper (Figures 7, 8 and 10) places such a compiler fastest to
// compile and, to execute, between the register allocating baselines
// and the interpreters. This implementation is neither: every operand
// round-trips through its value-stack slot, and on a dispatch-loop
// target each round-trip is a dispatch, so it emits several times the
// mach instructions SPC does. The repository benchmark records
// copypatch.compile_ms 22.6 against spc.compile_ms 19.8 on
// compile-wide, and exec_ms.copypatch 2.21 against exec_ms.int 1.43 on
// kernels — last on both axes (ROADMAP open item 4).
package copypatch

import (
	"wizgo/internal/engine"
	"wizgo/internal/mach"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// Tier adapts the template compiler for the engine.
type Tier struct{ TierName string }

// Name implements engine.Tier.
func (t Tier) Name() string {
	if t.TierName != "" {
		return t.TierName
	}
	return "copypatch"
}

// Compile implements engine.Tier. info is shared, so the walk validates
// into scratch.
func (t Tier) Compile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo, probes *rt.ProbeSet) (engine.Code, error) {
	return Compile(m, fidx, decl, nil)
}

// ValidateCompile implements engine.Tier.
func (t Tier) ValidateCompile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo) (engine.Code, error) {
	return Compile(m, fidx, decl, info)
}

// Fixed template registers (scratch only; never live across templates).
const (
	r0 = 0
	r1 = 1
	r2 = 2
)

type ctrl struct {
	op          wasm.Opcode
	label       int // end label (header for loops)
	elseLabel   int
	height      int
	nIn, nOut   int
	hasElse     bool
	unreachable bool
	wasDead     bool
}

type tc struct {
	m       *wasm.Module
	info    *validate.FuncInfo
	asm     *mach.Asm
	ctrls   []ctrl
	h       int
	nLocals int
	osr     map[int]int
}

func (t *tc) slot(pos int) int { return t.nLocals + pos }

// Compile translates one function with per-opcode templates, stamping
// each out as the validator's walk hands the instruction over. Like
// spc.Compile, it validates into info, or into scratch when info is nil.
func Compile(m *wasm.Module, fidx uint32, decl *wasm.Func, info *validate.FuncInfo) (*mach.Code, error) {
	w := validate.Walk(m, fidx, decl, info)
	defer w.Release()
	info = w.Info()
	t := &tc{
		m: m, info: info, asm: mach.NewAsm(),
		nLocals: len(info.LocalTypes),
		osr:     make(map[int]int),
	}
	ft := m.Types[decl.TypeIdx]

	// Prologue template: zero declared locals.
	for i := info.NumParams; i < t.nLocals; i++ {
		t.asm.Emit(mach.Instr{Op: mach.OStoreSlotConst, A: int32(i), Imm: 0})
	}
	t.ctrls = append(t.ctrls, ctrl{label: t.asm.NewLabel(), elseLabel: -1, nOut: len(ft.Results)})

	for {
		in, err := w.Next()
		if in == nil {
			if err != nil {
				return nil, err
			}
			break
		}
		t.asm.SetWasmPC(in.PC)
		t.instr(in)
	}
	code, err := t.asm.Finish()
	if err != nil {
		return nil, err
	}
	code.FuncIdx = fidx
	code.Name = m.FuncName(fidx)
	code.OSREntries = t.osr
	code.NumSlots = info.NumSlots()
	code.NumResults = len(ft.Results)
	code.NumParams = len(ft.Params)
	code.LocalTypes = info.LocalTypes
	return code, nil
}

func (t *tc) emit(in mach.Instr) { t.asm.Emit(in) }

// transfer moves the top val operand slots down to dest positions.
func (t *tc) transfer(destHeight, val int) {
	srcBase := t.h - val
	if srcBase == destHeight {
		return
	}
	for i := 0; i < val; i++ {
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(srcBase + i))})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(destHeight + i))})
	}
}

func (t *tc) frameAt(d uint32) *ctrl { return &t.ctrls[len(t.ctrls)-1-int(d)] }

func (t *tc) branchVals(fr *ctrl) int {
	if fr.op == wasm.OpLoop {
		return fr.nIn
	}
	return fr.nOut
}

func (t *tc) epilogue() {
	nres := len(t.info.Results)
	for i := 0; i < nres; i++ {
		src := t.slot(t.h - nres + i)
		if src == i {
			continue
		}
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(src)})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(i)})
	}
	t.emit(mach.Instr{Op: mach.OReturn})
}

func (t *tc) instr(in *validate.Instr) {
	op, nIn, nOut := in.Op, len(in.In), len(in.Out)
	fr := &t.ctrls[len(t.ctrls)-1]
	if fr.unreachable {
		t.skip(op)
		return
	}
	switch op {
	case wasm.OpUnreachable:
		t.emit(mach.Instr{Op: mach.OTrap, A: int32(rt.TrapUnreachable), Imm: uint64(in.PC)})
		fr.unreachable = true
	case wasm.OpNop:
	case wasm.OpBlock:
		t.ctrls = append(t.ctrls, ctrl{op: wasm.OpBlock, label: t.asm.NewLabel(),
			elseLabel: -1, height: t.h - nIn, nIn: nIn, nOut: nOut})
	case wasm.OpLoop:
		bodyPC := in.End
		l := t.asm.NewLabel()
		t.asm.Bind(l)
		t.emit(mach.Instr{Op: mach.OCheckPoint, A: int32(t.nLocals + t.h), Imm: uint64(bodyPC)})
		// OSR entry after the checkpoint: the interpreter charged this
		// header arrival at the back-edge it tiered up from.
		t.osr[bodyPC] = t.asm.Pos()
		t.ctrls = append(t.ctrls, ctrl{op: wasm.OpLoop, label: l,
			elseLabel: -1, height: t.h - nIn, nIn: nIn, nOut: nOut})
	case wasm.OpIf:
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		fr := ctrl{op: wasm.OpIf, label: t.asm.NewLabel(), elseLabel: t.asm.NewLabel(),
			height: t.h - nIn, nIn: nIn, nOut: nOut}
		t.asm.EmitBranch(mach.Instr{Op: mach.OBrIfZero, B: r0}, fr.elseLabel)
		t.ctrls = append(t.ctrls, fr)
	case wasm.OpElse:
		fr.hasElse = true
		t.transfer(fr.height, fr.nOut)
		t.asm.EmitBranch(mach.Instr{Op: mach.OJump}, fr.label)
		t.asm.Bind(fr.elseLabel)
		t.h = fr.height + fr.nIn
	case wasm.OpEnd:
		frv := *fr
		t.ctrls = t.ctrls[:len(t.ctrls)-1]
		if !frv.unreachable {
			t.transfer(frv.height, t.branchEndVals(&frv))
		}
		if frv.op == wasm.OpIf && !frv.hasElse && frv.elseLabel >= 0 {
			t.asm.Bind(frv.elseLabel)
		}
		if frv.op != wasm.OpLoop && frv.label >= 0 {
			t.asm.Bind(frv.label)
		}
		t.h = frv.height + frv.nOut
		if len(t.ctrls) == 0 {
			t.epilogue()
		}
	case wasm.OpBr:
		target := t.frameAt(in.Idx)
		t.transfer(target.height, t.branchVals(target))
		t.asm.EmitBranch(mach.Instr{Op: mach.OJump}, target.label)
		fr.unreachable = true
	case wasm.OpBrIf:
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		target := t.frameAt(in.Idx)
		vals := t.branchVals(target)
		if t.h-vals == target.height {
			t.asm.EmitBranch(mach.Instr{Op: mach.OBrIfNonZero, B: r0}, target.label)
		} else {
			skip := t.asm.NewLabel()
			t.asm.EmitBranch(mach.Instr{Op: mach.OBrIfZero, B: r0}, skip)
			t.transfer(target.height, vals)
			t.asm.EmitBranch(mach.Instr{Op: mach.OJump}, target.label)
			t.asm.Bind(skip)
		}
	case wasm.OpBrTable:
		depths := in.Targets
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		labels := make([]int, len(depths))
		type tramp struct {
			label int
			depth uint32
		}
		var tramps []tramp
		for i, d := range depths {
			target := t.frameAt(d)
			vals := t.branchVals(target)
			if t.h-vals == target.height {
				labels[i] = target.label
			} else {
				l := t.asm.NewLabel()
				labels[i] = l
				tramps = append(tramps, tramp{l, d})
			}
		}
		tidx := t.asm.NewTable(labels)
		t.emit(mach.Instr{Op: mach.OBrTable, A: int32(tidx), B: r0})
		for _, tr := range tramps {
			t.asm.Bind(tr.label)
			target := t.frameAt(tr.depth)
			t.transfer(target.height, t.branchVals(target))
			t.asm.EmitBranch(mach.Instr{Op: mach.OJump}, target.label)
		}
		fr.unreachable = true
	case wasm.OpReturn:
		t.epilogue()
		fr.unreachable = true
	case wasm.OpCall:
		argBase := t.nLocals + t.h - nIn
		t.emit(mach.Instr{Op: mach.OCall, A: int32(in.Idx), B: int32(argBase)})
		t.h += nOut - nIn
	case wasm.OpCallIndirect:
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r2, Imm: uint64(t.slot(t.h))})
		argBase := t.nLocals + t.h - nIn
		t.emit(mach.Instr{Op: mach.OCallIndirect, A: int32(in.Idx), B: int32(argBase), C: r2, Imm: in.Imm})
		t.h += nOut - nIn
	case wasm.OpDrop:
		t.h--
	case wasm.OpSelect, wasm.OpSelectT:
		t.selectTemplate()
	case wasm.OpLocalGet:
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(in.Idx)})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h))})
		t.h++
	case wasm.OpLocalSet:
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(in.Idx)})
	case wasm.OpLocalTee:
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(in.Idx)})
	case wasm.OpGlobalGet:
		t.emit(mach.Instr{Op: mach.OGlobalGet, A: r0, Imm: uint64(in.Idx)})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h))})
		t.h++
	case wasm.OpGlobalSet:
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OGlobalSet, B: r0, C: int32(wasm.TagOf(in.Type)), Imm: uint64(in.Idx)})
	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		t.pushConst(in.Imm)
	case wasm.OpMemorySize:
		t.emit(mach.Instr{Op: mach.OMemSize, A: r0})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h))})
		t.h++
	case wasm.OpMemoryGrow:
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
		t.emit(mach.Instr{Op: mach.OMemGrow, A: r0, B: r0})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
	case wasm.OpMemoryCopy:
		t.h -= 3
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r1, Imm: uint64(t.slot(t.h + 1))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r2, Imm: uint64(t.slot(t.h + 2))})
		t.emit(mach.Instr{Op: mach.OMemCopy, A: r0, B: r1, C: r2})
	case wasm.OpMemoryFill:
		t.h -= 3
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r1, Imm: uint64(t.slot(t.h + 1))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r2, Imm: uint64(t.slot(t.h + 2))})
		t.emit(mach.Instr{Op: mach.OMemFill, A: r0, B: r1, C: r2})
	case wasm.OpRefNull:
		t.pushConst(wasm.NullRef)
	case wasm.OpRefIsNull:
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
		t.emit(mach.Instr{Op: mach.OI64Eqz, A: r0, B: r0})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
	case wasm.OpRefFunc:
		t.pushConst(uint64(in.Idx) + 1)
	default:
		t.numericTemplate(op, in.Imm)
	}
}

func (t *tc) branchEndVals(fr *ctrl) int { return fr.nOut }

func (t *tc) pushConst(bits uint64) {
	t.emit(mach.Instr{Op: mach.OStoreSlotConst, A: int32(t.slot(t.h)), Imm: bits})
	t.h++
}

func (t *tc) selectTemplate() {
	t.h -= 2
	t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))}) // true value
	t.emit(mach.Instr{Op: mach.OLoadSlot, A: r1, Imm: uint64(t.slot(t.h))})     // false value
	t.emit(mach.Instr{Op: mach.OLoadSlot, A: r2, Imm: uint64(t.slot(t.h + 1))}) // condition
	t.emit(mach.Instr{Op: mach.OSelect, A: r0, B: r1, C: r2})
	t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
}

// numericTemplate stamps out loads/stores (off is the memory access's
// offset) around the arithmetic body. Every other opcode reaching here
// is a validated unary or binary numeric instruction.
func (t *tc) numericTemplate(op wasm.Opcode, off uint64) {
	if op.Imm() == wasm.ImmMem {
		if mop, ok := loadTemplate(op); ok {
			t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
			t.emit(mach.Instr{Op: mop, A: r0, B: r0, Imm: off})
			t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
			return
		}
		t.h -= 2
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r1, Imm: uint64(t.slot(t.h + 1))})
		t.emit(mach.Instr{Op: storeTemplate(op), B: r0, C: r1, Imm: off})
		return
	}
	if params, _, _ := op.Sig(); len(params) == 1 {
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
		t.emit(mach.Instr{Op: mach.OGen1, A: r0, B: r0, Imm: uint64(op)})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
		return
	}
	t.h--
	t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
	t.emit(mach.Instr{Op: mach.OLoadSlot, A: r1, Imm: uint64(t.slot(t.h))})
	t.emit(mach.Instr{Op: mach.OGen2, A: r0, B: r0, C: r1, Imm: uint64(op)})
	t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
}

func (t *tc) skip(op wasm.Opcode) {
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		t.ctrls = append(t.ctrls, ctrl{op: op, label: -1, elseLabel: -1,
			unreachable: true, wasDead: true, height: t.h})
	case wasm.OpElse:
		fr := &t.ctrls[len(t.ctrls)-1]
		fr.hasElse = true
		if !fr.wasDead {
			t.asm.Bind(fr.elseLabel)
			t.h = fr.height + fr.nIn
			fr.unreachable = false
		}
	case wasm.OpEnd:
		fr := t.ctrls[len(t.ctrls)-1]
		t.ctrls = t.ctrls[:len(t.ctrls)-1]
		if fr.wasDead {
			return
		}
		if fr.op == wasm.OpIf && !fr.hasElse && fr.elseLabel >= 0 {
			t.asm.Bind(fr.elseLabel)
		}
		if fr.op != wasm.OpLoop && fr.label >= 0 {
			t.asm.Bind(fr.label)
		}
		t.h = fr.height + fr.nOut
		if len(t.ctrls) == 0 {
			t.epilogue()
			return
		}
		// The merge is reachable via branches or the if false edge.
		if fr.op != wasm.OpLoop {
			t.ctrls[len(t.ctrls)-1].unreachable = false
		}
	}
}

func loadTemplate(op wasm.Opcode) (mach.Op, bool) {
	switch op {
	case wasm.OpI32Load, wasm.OpF32Load:
		return mach.OLd32, true
	case wasm.OpI64Load, wasm.OpF64Load:
		return mach.OLd64, true
	case wasm.OpI32Load8S:
		return mach.OLd8S32, true
	case wasm.OpI32Load8U:
		return mach.OLd8U32, true
	case wasm.OpI32Load16S:
		return mach.OLd16S32, true
	case wasm.OpI32Load16U:
		return mach.OLd16U32, true
	case wasm.OpI64Load8S:
		return mach.OLd8S64, true
	case wasm.OpI64Load8U:
		return mach.OLd8U64, true
	case wasm.OpI64Load16S:
		return mach.OLd16S64, true
	case wasm.OpI64Load16U:
		return mach.OLd16U64, true
	case wasm.OpI64Load32S:
		return mach.OLd32S64, true
	case wasm.OpI64Load32U:
		return mach.OLd32U64, true
	}
	return 0, false
}

func storeTemplate(op wasm.Opcode) mach.Op {
	switch op {
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return mach.OSt8
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return mach.OSt16
	case wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
		return mach.OSt32
	default:
		return mach.OSt64
	}
}
