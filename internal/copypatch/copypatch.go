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
// kernels — last on both axes (ROADMAP open item 3).
package copypatch

import (
	"fmt"

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

// Compile implements engine.Tier.
func (t Tier) Compile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo, probes *rt.ProbeSet) (engine.Code, error) {
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
	r       *wasm.Reader
}

func (t *tc) slot(pos int) int { return t.nLocals + pos }

// Compile translates one function with per-opcode templates.
func Compile(m *wasm.Module, fidx uint32, decl *wasm.Func, info *validate.FuncInfo) (*mach.Code, error) {
	t := &tc{
		m: m, info: info, asm: mach.NewAsm(),
		nLocals: len(info.LocalTypes),
		osr:     make(map[int]int),
		r:       wasm.NewReader(decl.Body),
	}
	ft := m.Types[decl.TypeIdx]

	// Prologue template: zero declared locals.
	for i := info.NumParams; i < t.nLocals; i++ {
		t.asm.Emit(mach.Instr{Op: mach.OStoreSlotConst, A: int32(i), Imm: 0})
	}
	t.ctrls = append(t.ctrls, ctrl{label: t.asm.NewLabel(), elseLabel: -1, nOut: len(ft.Results)})

	for t.r.Len() > 0 {
		pc := t.r.Pos
		op, err := t.r.ReadOpcode()
		if err != nil {
			return nil, err
		}
		if len(t.ctrls) == 0 {
			return nil, fmt.Errorf("copypatch: code after function end")
		}
		t.asm.SetWasmPC(pc)
		if err := t.instr(op, pc); err != nil {
			return nil, err
		}
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

func (t *tc) blockArity() (nIn, nOut int, err error) {
	bt, err := t.r.S33()
	if err != nil {
		return 0, 0, err
	}
	if bt >= 0 {
		ty := t.m.Types[bt]
		return len(ty.Params), len(ty.Results), nil
	}
	if bt == -64 {
		return 0, 0, nil
	}
	return 0, 1, nil
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

func (t *tc) instr(op wasm.Opcode, pc int) error {
	fr := &t.ctrls[len(t.ctrls)-1]
	if fr.unreachable {
		return t.skip(op)
	}
	switch op {
	case wasm.OpUnreachable:
		t.emit(mach.Instr{Op: mach.OTrap, A: int32(rt.TrapUnreachable), Imm: uint64(pc)})
		fr.unreachable = true
	case wasm.OpNop:
	case wasm.OpBlock:
		nIn, nOut, err := t.blockArity()
		if err != nil {
			return err
		}
		t.ctrls = append(t.ctrls, ctrl{op: wasm.OpBlock, label: t.asm.NewLabel(),
			elseLabel: -1, height: t.h - nIn, nIn: nIn, nOut: nOut})
	case wasm.OpLoop:
		nIn, nOut, err := t.blockArity()
		if err != nil {
			return err
		}
		bodyPC := t.r.Pos
		l := t.asm.NewLabel()
		t.asm.Bind(l)
		t.emit(mach.Instr{Op: mach.OCheckPoint, A: int32(t.nLocals + t.h), Imm: uint64(bodyPC)})
		// OSR entry after the checkpoint: the interpreter charged this
		// header arrival at the back-edge it tiered up from.
		t.osr[bodyPC] = t.asm.Pos()
		t.ctrls = append(t.ctrls, ctrl{op: wasm.OpLoop, label: l,
			elseLabel: -1, height: t.h - nIn, nIn: nIn, nOut: nOut})
	case wasm.OpIf:
		nIn, nOut, err := t.blockArity()
		if err != nil {
			return err
		}
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
		if len(t.ctrls) == 0 {
			t.h = frv.height + frv.nOut
			t.epilogue()
			return nil
		}
		t.h = frv.height + frv.nOut
	case wasm.OpBr:
		d, err := t.r.U32()
		if err != nil {
			return err
		}
		target := t.frameAt(d)
		t.transfer(target.height, t.branchVals(target))
		t.asm.EmitBranch(mach.Instr{Op: mach.OJump}, target.label)
		fr.unreachable = true
	case wasm.OpBrIf:
		d, err := t.r.U32()
		if err != nil {
			return err
		}
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		target := t.frameAt(d)
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
		n, err := t.r.U32()
		if err != nil {
			return err
		}
		depths := make([]uint32, n+1)
		for i := range depths {
			if depths[i], err = t.r.U32(); err != nil {
				return err
			}
		}
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
		fidx, err := t.r.U32()
		if err != nil {
			return err
		}
		ft, err := t.m.FuncTypeAt(fidx)
		if err != nil {
			return err
		}
		argBase := t.nLocals + t.h - len(ft.Params)
		t.emit(mach.Instr{Op: mach.OCall, A: int32(fidx), B: int32(argBase)})
		t.h += len(ft.Results) - len(ft.Params)
	case wasm.OpCallIndirect:
		typeIdx, err := t.r.U32()
		if err != nil {
			return err
		}
		tblIdx, err := t.r.U32()
		if err != nil {
			return err
		}
		ft := t.m.Types[typeIdx]
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r2, Imm: uint64(t.slot(t.h))})
		argBase := t.nLocals + t.h - len(ft.Params)
		t.emit(mach.Instr{Op: mach.OCallIndirect, A: int32(typeIdx), B: int32(argBase), C: r2, Imm: uint64(tblIdx)})
		t.h += len(ft.Results) - len(ft.Params)
	case wasm.OpDrop:
		t.h--
	case wasm.OpSelect:
		t.selectTemplate()
	case wasm.OpSelectT:
		n, err := t.r.U32()
		if err != nil {
			return err
		}
		if _, err := t.r.Take(int(n)); err != nil {
			return err
		}
		t.selectTemplate()
	case wasm.OpLocalGet:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(idx)})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h))})
		t.h++
	case wasm.OpLocalSet:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(idx)})
	case wasm.OpLocalTee:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(idx)})
	case wasm.OpGlobalGet:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		t.emit(mach.Instr{Op: mach.OGlobalGet, A: r0, Imm: uint64(idx)})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h))})
		t.h++
	case wasm.OpGlobalSet:
		idx, err := t.r.U32()
		if err != nil {
			return err
		}
		gt, _, _ := t.m.GlobalTypeAt(idx)
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OGlobalSet, B: r0, C: int32(wasm.TagOf(gt)), Imm: uint64(idx)})
	case wasm.OpI32Const:
		v, err := t.r.S32()
		if err != nil {
			return err
		}
		t.pushConst(uint64(uint32(v)))
	case wasm.OpI64Const:
		v, err := t.r.S64()
		if err != nil {
			return err
		}
		t.pushConst(uint64(v))
	case wasm.OpF32Const:
		bits, err := t.r.F32()
		if err != nil {
			return err
		}
		t.pushConst(uint64(bits))
	case wasm.OpF64Const:
		bits, err := t.r.F64()
		if err != nil {
			return err
		}
		t.pushConst(bits)
	case wasm.OpMemorySize:
		if _, err := t.r.Byte(); err != nil {
			return err
		}
		t.emit(mach.Instr{Op: mach.OMemSize, A: r0})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h))})
		t.h++
	case wasm.OpMemoryGrow:
		if _, err := t.r.Byte(); err != nil {
			return err
		}
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
		t.emit(mach.Instr{Op: mach.OMemGrow, A: r0, B: r0})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
	case wasm.OpMemoryCopy:
		if _, err := t.r.Take(2); err != nil {
			return err
		}
		t.h -= 3
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r1, Imm: uint64(t.slot(t.h + 1))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r2, Imm: uint64(t.slot(t.h + 2))})
		t.emit(mach.Instr{Op: mach.OMemCopy, A: r0, B: r1, C: r2})
	case wasm.OpMemoryFill:
		if _, err := t.r.Byte(); err != nil {
			return err
		}
		t.h -= 3
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r1, Imm: uint64(t.slot(t.h + 1))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r2, Imm: uint64(t.slot(t.h + 2))})
		t.emit(mach.Instr{Op: mach.OMemFill, A: r0, B: r1, C: r2})
	case wasm.OpRefNull:
		if _, err := t.r.Byte(); err != nil {
			return err
		}
		t.pushConst(wasm.NullRef)
	case wasm.OpRefIsNull:
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
		t.emit(mach.Instr{Op: mach.OI64Eqz, A: r0, B: r0})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
	case wasm.OpRefFunc:
		fidx, err := t.r.U32()
		if err != nil {
			return err
		}
		t.pushConst(uint64(fidx) + 1)
	default:
		return t.numericTemplate(op)
	}
	return nil
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

// numericTemplate stamps out loads/stores around the arithmetic body.
func (t *tc) numericTemplate(op wasm.Opcode) error {
	switch op.Imm() {
	case wasm.ImmMem:
		if _, err := t.r.U32(); err != nil {
			return err
		}
		off, err := t.r.U32()
		if err != nil {
			return err
		}
		if mop, ok := loadTemplate(op); ok {
			t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
			t.emit(mach.Instr{Op: mop, A: r0, B: r0, Imm: uint64(off)})
			t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
			return nil
		}
		t.h -= 2
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r1, Imm: uint64(t.slot(t.h + 1))})
		t.emit(mach.Instr{Op: storeTemplate(op), B: r0, C: r1, Imm: uint64(off)})
		return nil
	}
	params, _, ok := op.Sig()
	if !ok {
		return fmt.Errorf("copypatch: unsupported opcode %v", op)
	}
	switch len(params) {
	case 1:
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
		t.emit(mach.Instr{Op: mach.OGen1, A: r0, B: r0, Imm: uint64(op)})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
	case 2:
		t.h--
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r0, Imm: uint64(t.slot(t.h - 1))})
		t.emit(mach.Instr{Op: mach.OLoadSlot, A: r1, Imm: uint64(t.slot(t.h))})
		t.emit(mach.Instr{Op: mach.OGen2, A: r0, B: r0, C: r1, Imm: uint64(op)})
		t.emit(mach.Instr{Op: mach.OStoreSlot, B: r0, Imm: uint64(t.slot(t.h - 1))})
	default:
		return fmt.Errorf("copypatch: unexpected arity for %v", op)
	}
	return nil
}

func (t *tc) skip(op wasm.Opcode) error {
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		if _, _, err := t.blockArity(); err != nil {
			return err
		}
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
			return nil
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
			return nil
		}
		// The merge is reachable via branches or the if false edge.
		if fr.op != wasm.OpLoop {
			t.ctrls[len(t.ctrls)-1].unreachable = false
		}
	default:
		return t.r.SkipImm(op)
	}
	return nil
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
