// Package rewriter implements a rewriting interpreter tier in the style
// of wasm3: at load time each function body is translated once into a
// threaded internal format — opcodes widened, LEB immediates pre-decoded,
// branch targets resolved to absolute indices with explicit value
// transfer counts — and executed by a stack-machine loop over that
// format. Compared to the in-place interpreter it pays a per-module
// translation cost (setup time) to remove per-instruction decode work
// (no LEB decoding, no sidetable indirection, no tag stores), which is
// exactly where the paper's Figure 10 places rewriting interpreters:
// faster than in-place interpretation, far below compiled code.
package rewriter

import (
	"fmt"

	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// Internal pseudo-opcodes layered above the Wasm opcode space.
const (
	opReturn wasm.Opcode = 0x1000 + iota
	opBr                 // unconditional, with transfer
	opBrIfNZ             // branch if top != 0
	opBrIfZ              // branch if top == 0 (compiled from `if`)
	opBrTableX
	// opFuel is the loop-entry fuel checkpoint, emitted before the
	// header label so back-edges never re-execute it.
	opFuel
)

// Instr is one pre-decoded instruction.
type Instr struct {
	Op wasm.Opcode
	// A carries a local/global/function/type index, or ValCount for
	// branches; B carries PopCount for branches.
	A, B int32
	// Target is the resolved jump destination.
	Target int32
	// Imm carries constants and memory offsets.
	Imm uint64
}

// Code is a translated function body.
type Code struct {
	Instrs     []Instr
	Tables     [][]int32 // br_table target trampoline vectors
	NumSlots   int
	NumResults int
	LocalTypes []wasm.ValueType
	NumParams  int
	codeBytes  int
}

// Bytes implements the engine Code interface: translated size, at 16
// bytes per pre-decoded instruction.
func (c *Code) Bytes() int { return c.codeBytes }

// Tier translates functions for an engine preset.
type Tier struct{ TierName string }

// Name implements engine.Tier.
func (t Tier) Name() string {
	if t.TierName != "" {
		return t.TierName
	}
	return "rewriter"
}

type label struct {
	bound   int
	fixups  []int
	tfixups [][2]int
}

type xlat struct {
	m      *wasm.Module
	out    []Instr
	tables [][]int32
	labels []label
	ctrls  []xctrl
	h      int
}

type xctrl struct {
	op         wasm.Opcode
	label      int // end label (header label for loops)
	elseLabel  int
	height     int
	nIn, nOut  int
	hasElse    bool
	headerPos  int
	unreach    bool
	wasUnreach bool
}

func (x *xlat) newLabel() int {
	x.labels = append(x.labels, label{bound: -1})
	return len(x.labels) - 1
}

func (x *xlat) bind(l int) {
	lb := &x.labels[l]
	lb.bound = len(x.out)
	for _, fix := range lb.fixups {
		x.out[fix].Target = int32(lb.bound)
	}
	for _, tf := range lb.tfixups {
		x.tables[tf[0]][tf[1]] = int32(lb.bound)
	}
}

func (x *xlat) emit(in Instr) int {
	x.out = append(x.out, in)
	return len(x.out) - 1
}

func (x *xlat) emitBranch(in Instr, l int) int {
	if x.labels[l].bound >= 0 {
		in.Target = int32(x.labels[l].bound)
		return x.emit(in)
	}
	idx := x.emit(in)
	x.labels[l].fixups = append(x.labels[l].fixups, idx)
	return idx
}

func (x *xlat) frameAt(d uint32) *xctrl { return &x.ctrls[len(x.ctrls)-1-int(d)] }

func (x *xlat) branchArgs(fr *xctrl) (val, pop int32) {
	arity := fr.nOut
	if fr.op == wasm.OpLoop {
		arity = fr.nIn
	}
	p := x.h - arity - fr.height
	if p < 0 {
		p = 0
	}
	return int32(arity), int32(p)
}

func (x *xlat) target(fr *xctrl) int { return fr.label }

// Translate pre-decodes one function body.
func Translate(m *wasm.Module, fidx uint32, decl *wasm.Func, info *validate.FuncInfo) (*Code, error) {
	x := &xlat{m: m}
	ft := m.Types[decl.TypeIdx]
	funcLabel := x.newLabel()
	x.ctrls = append(x.ctrls, xctrl{label: funcLabel, elseLabel: -1, nOut: len(ft.Results)})

	r := wasm.NewReader(decl.Body)
	for r.Len() > 0 {
		op, err := r.ReadOpcode()
		if err != nil {
			return nil, err
		}
		if len(x.ctrls) == 0 {
			return nil, fmt.Errorf("rewriter: instructions after end")
		}
		if err := x.instr(op, r); err != nil {
			return nil, err
		}
	}
	for _, lb := range x.labels {
		if lb.bound < 0 && (len(lb.fixups) > 0 || len(lb.tfixups) > 0) {
			return nil, fmt.Errorf("rewriter: unbound label")
		}
	}
	return &Code{
		Instrs:     x.out,
		Tables:     x.tables,
		NumSlots:   info.NumSlots(),
		NumResults: len(info.Results),
		LocalTypes: info.LocalTypes,
		NumParams:  info.NumParams,
		codeBytes:  len(x.out) * 16,
	}, nil
}

func (x *xlat) blockArity(r *wasm.Reader) (nIn, nOut int, err error) {
	bt, err := r.S33()
	if err != nil {
		return 0, 0, err
	}
	if bt >= 0 {
		t := x.m.Types[bt]
		return len(t.Params), len(t.Results), nil
	}
	if bt == -64 {
		return 0, 0, nil
	}
	return 0, 1, nil
}

// instr translates one instruction.
func (x *xlat) instr(op wasm.Opcode, r *wasm.Reader) error {
	// Skip unreachable code: it cannot execute, and its stack heights
	// are polymorphic. Control nesting is still tracked.
	if x.ctrls[len(x.ctrls)-1].unreach {
		switch op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			if _, _, err := x.blockArity(r); err != nil {
				return err
			}
			x.ctrls = append(x.ctrls, xctrl{op: op, label: -1, elseLabel: -1,
				unreach: true, wasUnreach: true, height: x.h})
		case wasm.OpElse:
			fr := &x.ctrls[len(x.ctrls)-1]
			fr.hasElse = true
			if !fr.wasUnreach {
				// Live if whose then-arm ended unreachable.
				x.bind(fr.elseLabel)
				x.h = fr.height + fr.nIn
				fr.unreach = false
			}
		case wasm.OpEnd:
			fr := x.ctrls[len(x.ctrls)-1]
			x.ctrls = x.ctrls[:len(x.ctrls)-1]
			if fr.wasUnreach {
				return nil // parent stays unreachable
			}
			if fr.op == wasm.OpIf && !fr.hasElse {
				x.bind(fr.elseLabel)
			}
			if fr.op != wasm.OpLoop && fr.label >= 0 {
				x.bind(fr.label)
			}
			if len(x.ctrls) == 0 {
				x.emit(Instr{Op: opReturn})
				return nil
			}
			x.h = fr.height + fr.nOut
		default:
			return r.SkipImm(op)
		}
		return nil
	}

	switch op {
	case wasm.OpBlock:
		nIn, nOut, err := x.blockArity(r)
		if err != nil {
			return err
		}
		x.ctrls = append(x.ctrls, xctrl{
			op: wasm.OpBlock, label: x.newLabel(), elseLabel: -1,
			height: x.h - nIn, nIn: nIn, nOut: nOut,
		})
	case wasm.OpLoop:
		nIn, nOut, err := x.blockArity(r)
		if err != nil {
			return err
		}
		// Loop-entry fuel checkpoint before the header label: executes
		// on fall-in only; back-edges charge at their branch sites.
		x.emit(Instr{Op: opFuel})
		l := x.newLabel()
		x.bind(l)
		x.ctrls = append(x.ctrls, xctrl{
			op: wasm.OpLoop, label: l, elseLabel: -1,
			height: x.h - nIn, nIn: nIn, nOut: nOut,
		})
	case wasm.OpIf:
		nIn, nOut, err := x.blockArity(r)
		if err != nil {
			return err
		}
		x.h--
		fr := xctrl{
			op: wasm.OpIf, label: x.newLabel(), elseLabel: x.newLabel(),
			height: x.h - nIn, nIn: nIn, nOut: nOut,
		}
		x.emitBranch(Instr{Op: opBrIfZ, A: int32(nIn)}, fr.elseLabel)
		x.ctrls = append(x.ctrls, fr)
	case wasm.OpElse:
		fr := &x.ctrls[len(x.ctrls)-1]
		fr.hasElse = true
		x.emitBranch(Instr{Op: opBr, A: int32(fr.nOut)}, fr.label)
		x.bind(fr.elseLabel)
		x.h = fr.height + fr.nIn
		fr.unreach = false
	case wasm.OpEnd:
		fr := x.ctrls[len(x.ctrls)-1]
		x.ctrls = x.ctrls[:len(x.ctrls)-1]
		if fr.op == wasm.OpIf && !fr.hasElse && fr.elseLabel >= 0 {
			x.bind(fr.elseLabel)
		}
		if fr.op != wasm.OpLoop && fr.label >= 0 {
			x.bind(fr.label)
		}
		if len(x.ctrls) == 0 {
			x.emit(Instr{Op: opReturn})
			return nil
		}
		x.h = fr.height + fr.nOut
	case wasm.OpBr:
		d, err := r.U32()
		if err != nil {
			return err
		}
		fr := x.frameAt(d)
		val, pop := x.branchArgs(fr)
		x.emitBranch(Instr{Op: opBr, A: val, B: pop}, x.target(fr))
		x.ctrls[len(x.ctrls)-1].unreach = true
	case wasm.OpBrIf:
		d, err := r.U32()
		if err != nil {
			return err
		}
		x.h--
		fr := x.frameAt(d)
		val, pop := x.branchArgs(fr)
		x.emitBranch(Instr{Op: opBrIfNZ, A: val, B: pop}, x.target(fr))
	case wasm.OpBrTable:
		n, err := r.U32()
		if err != nil {
			return err
		}
		x.h--
		depths := make([]uint32, n+1)
		for i := range depths {
			if depths[i], err = r.U32(); err != nil {
				return err
			}
		}
		// The table jumps to per-target trampoline br instructions so
		// each target can have distinct transfer counts.
		tidx := len(x.tables)
		x.tables = append(x.tables, make([]int32, len(depths)))
		trampLabels := make([]int, len(depths))
		for i := range depths {
			trampLabels[i] = x.newLabel()
			x.labels[trampLabels[i]].tfixups = append(x.labels[trampLabels[i]].tfixups, [2]int{tidx, i})
		}
		x.emit(Instr{Op: opBrTableX, A: int32(tidx)})
		for i, d := range depths {
			x.bind(trampLabels[i])
			fr := x.frameAt(d)
			val, pop := x.branchArgs(fr)
			x.emitBranch(Instr{Op: opBr, A: val, B: pop}, x.target(fr))
		}
		x.ctrls[len(x.ctrls)-1].unreach = true
	case wasm.OpReturn:
		x.emit(Instr{Op: opReturn})
		x.ctrls[len(x.ctrls)-1].unreach = true
	case wasm.OpCall:
		fidx, err := r.U32()
		if err != nil {
			return err
		}
		ft, err := x.m.FuncTypeAt(fidx)
		if err != nil {
			return err
		}
		x.emit(Instr{Op: wasm.OpCall, A: int32(fidx)})
		x.h += len(ft.Results) - len(ft.Params)
	case wasm.OpCallIndirect:
		typeIdx, err := r.U32()
		if err != nil {
			return err
		}
		tblIdx, err := r.U32()
		if err != nil {
			return err
		}
		ft := x.m.Types[typeIdx]
		x.emit(Instr{Op: wasm.OpCallIndirect, A: int32(typeIdx), B: int32(tblIdx)})
		x.h += len(ft.Results) - len(ft.Params) - 1
	case wasm.OpLocalGet, wasm.OpLocalSet, wasm.OpLocalTee:
		idx, err := r.U32()
		if err != nil {
			return err
		}
		x.emit(Instr{Op: op, A: int32(idx)})
		if op == wasm.OpLocalGet {
			x.h++
		} else if op == wasm.OpLocalSet {
			x.h--
		}
	case wasm.OpGlobalGet, wasm.OpGlobalSet:
		idx, err := r.U32()
		if err != nil {
			return err
		}
		x.emit(Instr{Op: op, A: int32(idx)})
		if op == wasm.OpGlobalGet {
			x.h++
		} else {
			x.h--
		}
	case wasm.OpI32Const:
		v, err := r.S32()
		if err != nil {
			return err
		}
		x.emit(Instr{Op: op, Imm: uint64(uint32(v))})
		x.h++
	case wasm.OpI64Const:
		v, err := r.S64()
		if err != nil {
			return err
		}
		x.emit(Instr{Op: op, Imm: uint64(v)})
		x.h++
	case wasm.OpF32Const:
		bits, err := r.F32()
		if err != nil {
			return err
		}
		x.emit(Instr{Op: op, Imm: uint64(bits)})
		x.h++
	case wasm.OpF64Const:
		bits, err := r.F64()
		if err != nil {
			return err
		}
		x.emit(Instr{Op: op, Imm: bits})
		x.h++
	case wasm.OpMemorySize, wasm.OpMemoryGrow:
		if _, err := r.Byte(); err != nil {
			return err
		}
		x.emit(Instr{Op: op})
		if op == wasm.OpMemorySize {
			x.h++
		}
	case wasm.OpMemoryCopy:
		if _, err := r.Take(2); err != nil {
			return err
		}
		x.emit(Instr{Op: op})
		x.h -= 3
	case wasm.OpMemoryFill:
		if _, err := r.Byte(); err != nil {
			return err
		}
		x.emit(Instr{Op: op})
		x.h -= 3
	case wasm.OpRefNull:
		if _, err := r.Byte(); err != nil {
			return err
		}
		x.emit(Instr{Op: wasm.OpI64Const, Imm: wasm.NullRef})
		x.h++
	case wasm.OpRefIsNull:
		x.emit(Instr{Op: op})
	case wasm.OpRefFunc:
		fidx, err := r.U32()
		if err != nil {
			return err
		}
		x.emit(Instr{Op: wasm.OpI64Const, Imm: uint64(fidx) + 1})
		x.h++
	case wasm.OpDrop:
		x.emit(Instr{Op: op})
		x.h--
	case wasm.OpSelect:
		x.emit(Instr{Op: op})
		x.h -= 2
	case wasm.OpSelectT:
		n, err := r.U32()
		if err != nil {
			return err
		}
		if _, err := r.Take(int(n)); err != nil {
			return err
		}
		x.emit(Instr{Op: wasm.OpSelect})
		x.h -= 2
	case wasm.OpNop:
		x.emit(Instr{Op: op})
	case wasm.OpUnreachable:
		x.emit(Instr{Op: op})
		x.ctrls[len(x.ctrls)-1].unreach = true
	default:
		// Memory access and numeric instructions.
		switch op.Imm() {
		case wasm.ImmMem:
			if _, err := r.U32(); err != nil {
				return err
			}
			off, err := r.U32()
			if err != nil {
				return err
			}
			x.emit(Instr{Op: op, Imm: uint64(off)})
			if _, results, ok := op.Sig(); ok && len(results) > 0 {
				// load: addr -> value, height unchanged
			} else {
				x.h -= 2
			}
		case wasm.ImmNone:
			params, results, ok := op.Sig()
			if !ok {
				return fmt.Errorf("rewriter: unsupported opcode %v", op)
			}
			x.emit(Instr{Op: op})
			x.h += len(results) - len(params)
		default:
			return fmt.Errorf("rewriter: unsupported opcode %v", op)
		}
	}
	return nil
}
