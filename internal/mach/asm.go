package mach

import (
	"fmt"
	"sync"
)

// Asm is the assembler the compilers emit through: an append-only
// instruction buffer with label binding and forward-reference patching,
// the analog of a machine-code assembler with a relocation list.
//
// Everything but the br_table vectors is scratch: NewAsm takes an
// assembler whose buffers an earlier function already grew, and Finish
// copies the code out at its exact size and hands the assembler back.
// An Asm must not be used after Finish.
type Asm struct {
	code   []Instr
	wasmPC []int32
	curPC  int32 // wasm pc attributed to instructions being emitted
	tables [][]int32

	labels []label
	// tableFixups holds the pending br_table slots of all labels; each
	// label's entries are chained through next.
	tableFixups []tableFixup
}

// label is one label's state: the bound machine pc (-1 while unbound)
// and the heads of its two pending-reference chains (-1 when empty).
// Branch fixups chain through the Imm of the unresolved instructions
// themselves, table fixups through tableFixup.next.
type label struct {
	pos, fixup, tableFixup int32
}

type tableFixup struct {
	table, slot, next int32
}

var asms = sync.Pool{New: func() any { return new(Asm) }}

// NewAsm returns an empty assembler.
func NewAsm() *Asm { return asms.Get().(*Asm) }

// SetWasmPC sets the bytecode offset attributed to subsequently emitted
// instructions (for trap attribution and deopt).
func (a *Asm) SetWasmPC(pc int) { a.curPC = int32(pc) }

// Pos returns the current machine pc (the index of the next instruction).
func (a *Asm) Pos() int { return len(a.code) }

// Emit appends an instruction and returns its machine pc.
func (a *Asm) Emit(in Instr) int {
	a.code = append(a.code, in)
	a.wasmPC = append(a.wasmPC, a.curPC)
	return len(a.code) - 1
}

// NewLabel allocates an unbound label.
func (a *Asm) NewLabel() int {
	a.labels = append(a.labels, label{pos: -1, fixup: -1, tableFixup: -1})
	return len(a.labels) - 1
}

// Bind binds label to the current position and patches pending fixups.
func (a *Asm) Bind(label int) {
	l := &a.labels[label]
	if l.pos != -1 {
		panic(fmt.Sprintf("mach.Asm: label %d bound twice", label))
	}
	pos := len(a.code)
	l.pos = int32(pos)
	for idx := l.fixup; idx != -1; {
		in := &a.code[idx]
		idx = int32(in.Imm)
		in.Imm = uint64(pos)
	}
	for idx := l.tableFixup; idx != -1; {
		f := a.tableFixups[idx]
		a.tables[f.table][f.slot] = int32(pos)
		idx = f.next
	}
	l.fixup, l.tableFixup = -1, -1
}

// Bound reports whether the label has been bound (loop headers are bound
// before their branches; forward labels after).
func (a *Asm) Bound(label int) bool { return a.labels[label].pos != -1 }

// Target returns the pc of a bound label.
func (a *Asm) Target(label int) int { return int(a.labels[label].pos) }

// EmitBranch emits a branch instruction whose Imm is the label target,
// recording a fixup when the label is not yet bound.
func (a *Asm) EmitBranch(in Instr, label int) int {
	l := &a.labels[label]
	if l.pos != -1 {
		in.Imm = uint64(l.pos)
		return a.Emit(in)
	}
	in.Imm = uint64(uint32(l.fixup))
	idx := a.Emit(in)
	l.fixup = int32(idx)
	return idx
}

// NewTable allocates a br_table target vector whose entries reference
// the given labels, patched as they bind. Returns the table index.
func (a *Asm) NewTable(labels []int) int {
	t := make([]int32, len(labels))
	tidx := len(a.tables)
	a.tables = append(a.tables, t)
	for i, li := range labels {
		l := &a.labels[li]
		if l.pos != -1 {
			t[i] = l.pos
			continue
		}
		a.tableFixups = append(a.tableFixups, tableFixup{int32(tidx), int32(i), l.tableFixup})
		l.tableFixup = int32(len(a.tableFixups) - 1)
	}
	return tidx
}

// Finish seals the assembly into a Code object holding exact-size
// copies of the instruction stream, and recycles the assembler. All
// labels referenced by branches must be bound.
func (a *Asm) Finish() (*Code, error) {
	defer a.recycle()
	unbound := 0
	for _, l := range a.labels {
		if l.fixup != -1 || l.tableFixup != -1 {
			unbound++
		}
	}
	if unbound > 0 {
		return nil, fmt.Errorf("mach.Asm: %d labels left unbound", unbound)
	}
	// make-then-copy is the form the Go compiler allocates without
	// zeroing first.
	src, srcPC := a.code, a.wasmPC
	instrs := make([]Instr, len(src))
	copy(instrs, src)
	wasmPC := make([]int32, len(srcPC))
	copy(wasmPC, srcPC)
	code := &Code{
		Instrs: instrs,
		WasmPC: wasmPC,
		// One MachCode instruction stands in for one native
		// instruction; 4 bytes approximates RISC-style encoding for
		// compile-throughput accounting.
		CodeBytes: len(a.code) * 4,
	}
	if len(a.tables) > 0 {
		code.Tables = append(make([][]int32, 0, len(a.tables)), a.tables...)
	}
	return code, nil
}

// recycle empties the assembler, keeping its buffers, and returns it to
// the pool. The br_table vectors now belong to the Code.
func (a *Asm) recycle() {
	clear(a.tables)
	*a = Asm{
		code: a.code[:0], wasmPC: a.wasmPC[:0], tables: a.tables[:0],
		labels: a.labels[:0], tableFixups: a.tableFixups[:0],
	}
	asms.Put(a)
}
