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
//
// The translator is driven by the validator's walk (validate.Walk), as
// the compilers are: it reads each instruction's opcode and immediates
// from the walk, and each branch's transfer counts and target from the
// sidetable entry the validator recorded for it, so the rewritten code
// and the in-place interpreter take branches by one rule.
package rewriter

import (
	"cmp"
	"fmt"
	"slices"

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
	// loop header so back-edges never re-execute it.
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

// xlat is the translation state of one function body.
type xlat struct {
	out    []Instr
	tables [][]int32
	// marks lists, in body order, the instruction index each block
	// boundary (loop header, else arm, end) translates to; a branch's
	// sidetable target is one of them.
	marks []mark
	// depth counts the open control frames, the function's included;
	// dead is the depth at which the code went unreachable, 0 while it
	// is reachable.
	depth, dead int
}

type mark struct{ pc, idx int32 }

// Translate pre-decodes one function body, validating it into info in
// the same walk (nil info validates into scratch, for a function whose
// FuncInfo is already shared). Opcodes and immediates come from the
// walk, and every branch takes its value count, pop count and target
// from the sidetable entry the validator recorded for it, the same
// entry the in-place interpreter executes.
func Translate(m *wasm.Module, fidx uint32, decl *wasm.Func, info *validate.FuncInfo) (*Code, error) {
	w := validate.Walk(m, fidx, decl, info)
	defer w.Release()
	x := &xlat{depth: 1}
	for {
		in, err := w.Next()
		if in == nil {
			if err != nil {
				return nil, err
			}
			break
		}
		x.instr(in)
	}
	side := w.Sidetable()
	for i := range x.out {
		in := &x.out[i]
		if in.Op >= opBr && in.Op <= opBrIfZ {
			e := &side[in.Target]
			target, ok := x.at(e.TargetIP)
			if !ok {
				return nil, fmt.Errorf("rewriter: branch target +%d is not a block boundary", e.TargetIP)
			}
			in.A, in.B, in.Target = int32(e.ValCount), int32(e.PopCount), target
		}
	}
	info = w.Info()
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

func (x *xlat) emit(in Instr) { x.out = append(x.out, in) }

// branch emits a branch through sidetable entry e, which Translate
// resolves once the walk is done.
func (x *xlat) branch(op wasm.Opcode, e uint32) { x.emit(Instr{Op: op, Target: int32(e)}) }

// mark notes that a branch to body offset pc lands on the next
// instruction emitted.
func (x *xlat) mark(pc int) { x.marks = append(x.marks, mark{int32(pc), int32(len(x.out))}) }

// at returns the instruction index body offset pc translates to.
func (x *xlat) at(pc uint32) (int32, bool) {
	i, ok := slices.BinarySearchFunc(x.marks, int32(pc), func(m mark, pc int32) int { return cmp.Compare(m.pc, pc) })
	if !ok {
		return 0, false
	}
	return x.marks[i].idx, true
}

// end closes a reachable frame; the function's end returns.
func (x *xlat) end(in *validate.Instr) {
	x.mark(in.End)
	if x.depth--; x.depth == 0 {
		x.emit(Instr{Op: opReturn})
	}
}

// instr translates one instruction.
func (x *xlat) instr(in *validate.Instr) {
	op := in.Op
	if x.dead != 0 {
		// Skip unreachable code: it cannot execute. Nesting is still
		// tracked, until the frame the code went dead in reaches its
		// else arm or its end, which the sidetable's edges make
		// reachable again.
		switch {
		case op == wasm.OpBlock || op == wasm.OpLoop || op == wasm.OpIf:
			x.depth++
		case x.depth != x.dead:
			if op == wasm.OpEnd {
				x.depth--
			}
		case op == wasm.OpElse:
			x.dead = 0
			x.mark(in.End)
		case op == wasm.OpEnd:
			x.dead = 0
			x.end(in)
		}
		return
	}

	switch op {
	case wasm.OpBlock:
		x.depth++
	case wasm.OpLoop:
		x.depth++
		// Loop-entry fuel checkpoint before the header: executes on
		// fall-in only; back-edges charge at their branch sites.
		x.emit(Instr{Op: opFuel})
		x.mark(in.End)
	case wasm.OpIf:
		x.depth++
		x.branch(opBrIfZ, in.Side)
	case wasm.OpElse:
		x.branch(opBr, in.Side)
		x.mark(in.End)
	case wasm.OpEnd:
		x.end(in)
	case wasm.OpBr:
		x.branch(opBr, in.Side)
		x.dead = x.depth
	case wasm.OpBrIf:
		x.branch(opBrIfNZ, in.Side)
	case wasm.OpBrTable:
		// The table jumps to per-target trampoline br instructions so
		// each target can have distinct transfer counts.
		first := int32(len(x.out)) + 1
		t := make([]int32, len(in.Targets))
		for i := range t {
			t[i] = first + int32(i)
		}
		x.emit(Instr{Op: opBrTableX, A: int32(len(x.tables))})
		x.tables = append(x.tables, t)
		for i := range t {
			x.branch(opBr, in.Side+uint32(i))
		}
		x.dead = x.depth
	case wasm.OpReturn:
		x.emit(Instr{Op: opReturn})
		x.dead = x.depth
	case wasm.OpUnreachable:
		x.emit(Instr{Op: op})
		x.dead = x.depth
	case wasm.OpCall, wasm.OpLocalGet, wasm.OpLocalSet, wasm.OpLocalTee,
		wasm.OpGlobalGet, wasm.OpGlobalSet:
		x.emit(Instr{Op: op, A: int32(in.Idx)})
	case wasm.OpCallIndirect:
		x.emit(Instr{Op: op, A: int32(in.Idx), B: int32(in.Imm)})
	case wasm.OpRefNull:
		x.emit(Instr{Op: wasm.OpI64Const, Imm: wasm.NullRef})
	case wasm.OpRefFunc:
		x.emit(Instr{Op: wasm.OpI64Const, Imm: uint64(in.Idx) + 1})
	case wasm.OpSelectT:
		x.emit(Instr{Op: wasm.OpSelect})
	default:
		// Numeric, memory and the remaining immediate-free instructions;
		// constants carry their bits and memory accesses their offset.
		var imm uint64
		switch op.Shape().Imm {
		case wasm.ImmMem, wasm.ImmI32, wasm.ImmI64, wasm.ImmF32, wasm.ImmF64:
			imm = in.Imm
		}
		x.emit(Instr{Op: op, Imm: imm})
	}
}
