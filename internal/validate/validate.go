// Package validate implements Wasm code validation as a single forward
// abstract-interpretation pass, exactly the algorithm family the paper
// identifies as the common core of all single-pass Wasm compilers. As it
// validates, it builds the control "sidetable" that Wizard's in-place
// interpreter uses to take branches in O(1) without rewriting bytecode
// (Titzer, OOPSLA 2022), and records the metadata (max operand stack
// height, local types) every execution tier needs.
//
// The walk is a step function: Walker.Next decodes one instruction and
// its immediates, type-checks it, records its sidetable entries and
// hands the decoded Instr back. Module and Function loop over the step;
// the compilers and the rewriting interpreter's translator drive the
// same step and translate each instruction as it is handed over, so a
// body is decoded and type-checked once whether or not it is also
// compiled, and branches are resolved by the one sidetable rule.
package validate

import (
	"fmt"
	"sync"

	"wizgo/internal/wasm"
)

// SidetableEntry describes one control transfer. The in-place interpreter
// maintains a sidetable pointer (STP) that advances in lock-step with the
// instruction pointer; taking a branch applies the entry: jump to
// TargetIP, set STP to TargetSTP, keep the top ValCount values and
// discard PopCount slots beneath them.
type SidetableEntry struct {
	TargetIP  uint32
	TargetSTP uint32
	ValCount  uint32
	PopCount  uint32
}

// FuncInfo is the validator's output for one function body.
type FuncInfo struct {
	// Sidetable entries in bytecode order of their owning instructions:
	// if and else own one entry each, br and br_if own one, br_table
	// owns len(targets)+1 consecutive entries.
	Sidetable []SidetableEntry
	// Owners[i] is the bytecode offset of the instruction owning
	// Sidetable[i]. Sorted ascending by construction; used to
	// reconstruct the sidetable pointer for an arbitrary pc during
	// tier-down (deopt), the "reconstructing IP and STP" step of the
	// paper's Section IV-B.
	Owners []uint32
	// MaxStack is the maximum operand stack height in slots.
	MaxStack int
	// LocalTypes lists parameter types followed by declared locals.
	LocalTypes []wasm.ValueType
	// Results is the function result types.
	Results []wasm.ValueType
	// NumParams is the number of parameters within LocalTypes.
	NumParams int
	// NoWrites reports that the body holds no store, memory.grow/fill/copy
	// or call_indirect, reachable or not; Callees lists its direct calls'
	// function indices in body order. Both are noted during the walk as
	// the input of internal/analysis and are not serialized; the zero
	// value (not the validator's output) reads as a writer.
	NoWrites bool
	Callees  []uint32
	// ReadOnly is set by the static-analysis pass (internal/analysis)
	// only when the function — and everything it can transitively call —
	// provably never writes, fills, copies into or grows linear memory.
	// Imports and indirect calls are conservatively assumed to write, and
	// the zero value (analysis did not run) is the conservative answer.
	ReadOnly bool
}

// Frame returns the FuncInfo of f, a function of m, with only its frame
// set: LocalTypes (the parameters, then the declared locals), Results
// and NumParams. It is the one definition of a function's frame: the
// walk starts from it, and a disk load rebuilds it from the decoded
// module instead of storing it. LocalTypes is carved from the front of
// buf when buf has room for it, so a caller can lay every frame of a
// module out in one block.
func Frame(m *wasm.Module, f *wasm.Func, buf []wasm.ValueType) FuncInfo {
	ft := m.Types[f.TypeIdx]
	n := len(ft.Params) + len(f.Locals)
	if cap(buf) < n {
		buf = make([]wasm.ValueType, 0, n)
	}
	locals := append(append(buf[:0:n], ft.Params...), f.Locals...)
	return FuncInfo{LocalTypes: locals, Results: ft.Results, NumParams: len(ft.Params)}
}

// NumSlots returns the frame size in value slots (locals + max operand
// stack), the quantity both interpreter and compiled frames reserve.
func (fi *FuncInfo) NumSlots() int { return len(fi.LocalTypes) + fi.MaxStack }

// unknownType marks a polymorphic stack slot produced in unreachable code.
const unknownType wasm.ValueType = 0

type ctrlFrame struct {
	op          wasm.Opcode // block, loop, if, or 0 for the function frame
	startTypes  []wasm.ValueType
	endTypes    []wasm.ValueType
	height      int // value stack height at frame entry, params excluded
	unreachable bool
	hasElse     bool
	// stpAtStart and ipAtStart give the branch target for loops.
	stpAtStart int
	ipAtStart  int
	// endFixup heads the chain of sidetable entries patched when end is
	// reached, noFixup when empty; an unresolved entry's TargetIP holds
	// the next index.
	endFixup uint32
	// ifFixup is the entry emitted at if for its false edge; patched at
	// else (or at end when there is no else). -1 if absent.
	ifFixup int
}

// noFixup terminates a frame's end-fixup chain.
const noFixup = ^uint32(0)

func (f *ctrlFrame) labelArity() int {
	if f.op == wasm.OpLoop {
		return len(f.startTypes)
	}
	return len(f.endTypes)
}

func (f *ctrlFrame) labelTypes() []wasm.ValueType {
	if f.op == wasm.OpLoop {
		return f.startTypes
	}
	return f.endTypes
}

// Instr is one decoded, type-checked instruction as Walker.Next hands it
// to a compiler. Each opcode sets only the fields it uses; the others
// hold whatever an earlier instruction left there. The Instr and the
// slices it points into belong to the walker and stay valid until the
// next call to Next.
type Instr struct {
	Op wasm.Opcode
	// PC is the body offset of the opcode, End the offset just past its
	// immediates (a loop's body starts there).
	PC, End int
	// Idx is the index immediate: a branch depth, or a local, global,
	// function or type index.
	Idx uint32
	// Side is the sidetable index of the first entry the instruction
	// owns (see FuncInfo.Sidetable), recorded before the walk hands the
	// instruction over.
	Side uint32
	// Imm is a constant's bits, a memory access's offset or
	// call_indirect's table index.
	Imm uint64
	// In and Out are a block's parameter and result types, or a call's.
	In, Out []wasm.ValueType
	// Type is global.get and global.set's value type.
	Type wasm.ValueType
	// Targets holds br_table's depths, the default last.
	Targets []uint32
}

// validator holds the abstract-interpretation state of one function
// walk. It is reused for every function of a module (and, through the
// validators pool, by later modules); side, owners and callees grow in
// its buffers and each FuncInfo receives exact-size copies.
type validator struct {
	m       *wasm.Module
	r       wasm.Reader
	vals    []wasm.ValueType
	ctrls   []ctrlFrame
	targets []uint32 // br_table depths of the instruction being validated
	side    []SidetableEntry
	owners  []uint32
	callees []uint32
	writes  bool // the body holds a memory-writing instruction
	// maxStack is the highest operand stack height so far.
	maxStack int
	info     *FuncInfo
	// scratch receives the walk of a caller that keeps no FuncInfo; its
	// walk keeps sidetable, owners and callees in the buffers above.
	scratch FuncInfo
	// in is the instruction being validated; its Op is noOpcode before
	// the first.
	in     Instr
	fidx   uint32 // function index reported in errors
	locals []wasm.ValueType
	// numMemories and numTables cache the imported+defined counts:
	// memCheck and call_indirect consult them per instruction, and
	// recounting the import section each time would make validation
	// O(imports x instructions).
	numMemories int
	numTables   int
}

// Error wraps a validation failure with function context. Op is the
// opcode being validated when the failure was raised (noOpcode before
// the first opcode of a body is read), so diagnostics name the
// offending instruction, not just its raw pc.
type Error struct {
	FuncIdx uint32
	PC      int
	Op      wasm.Opcode
	Msg     string
}

// noOpcode marks an Error raised before any opcode was decoded; it is
// outside the opcode space, so it never renders as an instruction name.
const noOpcode wasm.Opcode = 0xFFFF

func (e *Error) Error() string {
	if e.Op != noOpcode && e.Op.Known() {
		return fmt.Sprintf("validate: func %d at +%d (%v): %s", e.FuncIdx, e.PC, e.Op, e.Msg)
	}
	return fmt.Sprintf("validate: func %d at +%d: %s", e.FuncIdx, e.PC, e.Msg)
}

// Module validates the module-level index spaces and then every function
// body, returning per-function metadata in function-section order.
func Module(m *wasm.Module) ([]FuncInfo, error) {
	if err := ModuleLevel(m); err != nil {
		return nil, err
	}
	infos := make([]FuncInfo, len(m.Funcs))
	nImp := m.NumImportedFuncs()
	v := newValidator(m)
	defer v.release()
	for i := range m.Funcs {
		if err := v.function(uint32(nImp+i), &m.Funcs[i], &infos[i]); err != nil {
			return nil, err
		}
	}
	return infos, nil
}

// ModuleLevel checks everything outside the function bodies: type
// indices of imports and functions, export, element and data targets,
// the memory count and limits, and the start function. Function bodies
// are validated separately (Function, or a Walker driven by a
// compiler), which assumes these checks passed.
func ModuleLevel(m *wasm.Module) error {
	for _, imp := range m.Imports {
		if imp.Kind == wasm.ImportFunc && int(imp.TypeIdx) >= len(m.Types) {
			return fmt.Errorf("validate: import %s.%s: type index %d out of range",
				imp.Module, imp.Name, imp.TypeIdx)
		}
		if imp.Kind == wasm.ImportMemory {
			if err := memoryLimits(imp.Lim); err != nil {
				return fmt.Errorf("validate: import %s.%s: %v", imp.Module, imp.Name, err)
			}
		}
	}
	for i, lim := range m.Memories {
		if err := memoryLimits(lim); err != nil {
			return fmt.Errorf("validate: memory %d: %v", i, err)
		}
	}
	// Counted once: the Num* helpers walk the import section, and the
	// export/elem/data loops below consult the counts per item.
	numMemories, numTables := m.NumMemories(), m.NumTables()
	if numMemories > 1 {
		return fmt.Errorf("validate: %d memories (imported + defined); at most one is supported",
			numMemories)
	}
	for i, f := range m.Funcs {
		if int(f.TypeIdx) >= len(m.Types) {
			return fmt.Errorf("validate: func %d: type index %d out of range", i, f.TypeIdx)
		}
	}
	nFuncs := uint32(m.NumFuncs())
	for _, e := range m.Exports {
		switch e.Kind {
		case wasm.ImportFunc:
			if e.Idx >= nFuncs {
				return fmt.Errorf("validate: export %q: function index %d out of range", e.Name, e.Idx)
			}
		case wasm.ImportMemory:
			if int(e.Idx) >= numMemories {
				return fmt.Errorf("validate: export %q: memory index %d out of range", e.Name, e.Idx)
			}
		case wasm.ImportGlobal:
			if int(e.Idx) >= m.NumGlobals() {
				return fmt.Errorf("validate: export %q: global index %d out of range", e.Name, e.Idx)
			}
		case wasm.ImportTable:
			if int(e.Idx) >= numTables {
				return fmt.Errorf("validate: export %q: table index %d out of range", e.Name, e.Idx)
			}
		}
	}
	for i, el := range m.Elems {
		if int(el.TableIdx) >= numTables {
			return fmt.Errorf("validate: elem %d: table index out of range", i)
		}
		for _, fidx := range el.Funcs {
			if fidx >= nFuncs {
				return fmt.Errorf("validate: elem %d: function index %d out of range", i, fidx)
			}
		}
	}
	for i, d := range m.Datas {
		if int(d.MemIdx) >= numMemories {
			return fmt.Errorf("validate: data %d: memory index out of range", i)
		}
	}
	if m.HasStart {
		ft, err := m.FuncTypeAt(m.Start)
		if err != nil {
			return fmt.Errorf("validate: start: %v", err)
		}
		if len(ft.Params) != 0 || len(ft.Results) != 0 {
			return fmt.Errorf("validate: start function must have type () -> (), has %v", ft)
		}
	}
	return nil
}

// memoryLimits checks a memory's limits against the spec's 4 GiB bound;
// instantiation allocates the minimum, so an unchecked one is a fatal
// out-of-memory rather than an error.
func memoryLimits(lim wasm.Limits) error {
	if lim.Min > wasm.MaxPages {
		return fmt.Errorf("memory minimum %d pages exceeds %d", lim.Min, wasm.MaxPages)
	}
	if lim.HasMax && lim.Max > wasm.MaxPages {
		return fmt.Errorf("memory maximum %d pages exceeds %d", lim.Max, wasm.MaxPages)
	}
	return nil
}

// Function validates the body of function fidx (decl, its entry in the
// function section) into info.
func Function(m *wasm.Module, fidx uint32, decl *wasm.Func, info *FuncInfo) error {
	v := newValidator(m)
	defer v.release()
	return v.function(fidx, decl, info)
}

// Walker validates one function body an instruction at a time, for a
// compiler that translates each instruction as it is validated.
type Walker struct{ v *validator }

// Walk starts validating the body of function fidx into info. A nil
// info validates into scratch the walker owns: a recompile of a function
// whose FuncInfo is already shared must not write it. Release the walker
// when done with it.
func Walk(m *wasm.Module, fidx uint32, decl *wasm.Func, info *FuncInfo) Walker {
	v := newValidator(m)
	if info == nil {
		info = &v.scratch
	}
	v.begin(fidx, decl, info)
	return Walker{v}
}

// Next validates the next instruction and returns it. At the end of a
// valid body it returns nil, after filling in the FuncInfo. The
// instruction is checked before it is returned, so a compiler never sees
// one that does not validate.
func (w Walker) Next() (*Instr, error) { return w.v.next() }

// Info is the FuncInfo the walk fills in. Its types are set when the
// walk starts, everything else when Next reports the end of the body.
func (w Walker) Info() *FuncInfo { return w.v.info }

// Sidetable is the walk's sidetable so far, in the walker's buffer: an
// entry's target is final once the walk has passed it, so all are after
// Next reports the end of the body. Valid until Release, also when the
// walk validates into scratch.
func (w Walker) Sidetable() []SidetableEntry { return w.v.side }

// Release returns the walker's scratch to the pool.
func (w Walker) Release() { w.v.release() }

// validators recycles validator scratch across modules and goroutines.
var validators = sync.Pool{New: func() any { return new(validator) }}

// newValidator takes a validator from the pool and binds it to m. The
// import-spanning counts are taken once here: recounting the import
// section per function would make Module O(functions x imports).
func newValidator(m *wasm.Module) *validator {
	v := validators.Get().(*validator)
	v.m, v.numMemories, v.numTables = m, m.NumMemories(), m.NumTables()
	return v
}

// release returns v to the pool holding only its scratch buffers, not
// the module it last walked.
func (v *validator) release() {
	v.m, v.info, v.locals, v.r = nil, nil, nil, wasm.Reader{}
	v.scratch, v.in = FuncInfo{}, Instr{}
	clear(v.ctrls[:cap(v.ctrls)]) // popped frames still point at m's types
	validators.Put(v)
}

// function validates f, function fidx, into info.
func (v *validator) function(fidx uint32, f *wasm.Func, info *FuncInfo) error {
	v.begin(fidx, f, info)
	for {
		in, err := v.next()
		if in == nil {
			return err
		}
	}
}

// begin sets up the walk of f into info.
func (v *validator) begin(fidx uint32, f *wasm.Func, info *FuncInfo) {
	*info = Frame(v.m, f, nil)
	v.r = wasm.Reader{Bytes: f.Body}
	v.vals, v.ctrls = v.vals[:0], v.ctrls[:0]
	v.side, v.owners, v.callees = v.side[:0], v.owners[:0], v.callees[:0]
	v.info, v.fidx, v.locals, v.writes, v.maxStack = info, fidx, info.LocalTypes, false, 0
	v.in.Op, v.in.PC = noOpcode, 0
	v.pushCtrl(0, nil, info.Results)
}

// next is one step of the walk: decode, check and record one
// instruction. It returns nil at the end of the body, when info gets
// exact-size copies of the walk's buffers (except into scratch, which
// nobody reads them from).
func (v *validator) next() (*Instr, error) {
	if v.r.Len() == 0 {
		if len(v.ctrls) != 0 {
			return nil, v.fail("function body truncated inside %d open blocks", len(v.ctrls))
		}
		if v.info != &v.scratch {
			v.info.Sidetable, v.info.Owners, v.info.Callees = exact(v.side), exact(v.owners), exact(v.callees)
		}
		v.info.NoWrites, v.info.MaxStack = !v.writes, v.maxStack
		return nil, nil
	}
	if len(v.ctrls) == 0 {
		return nil, v.fail("instructions after function end")
	}
	in := &v.in
	pc := v.r.Pos
	// A one-byte opcode is read here; ReadOpcode takes the 0xFC prefix.
	op := wasm.Opcode(v.r.Bytes[pc])
	if op == wasm.Opcode(wasm.PrefixFC) {
		var err error
		if op, err = v.r.ReadOpcode(); err != nil {
			return nil, err
		}
	} else {
		v.r.Pos++
	}
	in.Op, in.PC, in.Side = op, pc, uint32(len(v.side))
	if err := v.instr(op, in); err != nil {
		return nil, err
	}
	in.End = v.r.Pos
	return in, nil
}

// exact returns a copy of s with no spare capacity (nil when empty).
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

func (v *validator) fail(format string, args ...any) error {
	return &Error{FuncIdx: v.fidx, PC: v.in.PC, Op: v.in.Op, Msg: fmt.Sprintf(format, args...)}
}

func (v *validator) pushVal(t wasm.ValueType) {
	v.vals = append(v.vals, t)
	if h := len(v.vals); h > v.maxStack {
		v.maxStack = h
	}
}

func (v *validator) popVal() (wasm.ValueType, error) {
	frame := &v.ctrls[len(v.ctrls)-1]
	if len(v.vals) == frame.height {
		if frame.unreachable {
			return unknownType, nil
		}
		return 0, v.fail("operand stack underflow")
	}
	t := v.vals[len(v.vals)-1]
	v.vals = v.vals[:len(v.vals)-1]
	return t, nil
}

func (v *validator) popExpect(want wasm.ValueType) (wasm.ValueType, error) {
	got, err := v.popVal()
	if err != nil {
		return 0, err
	}
	if got != want && got != unknownType && want != unknownType {
		return 0, v.fail("type mismatch: expected %v, got %v", want, got)
	}
	return got, nil
}

func (v *validator) popVals(types []wasm.ValueType) error {
	for i := len(types) - 1; i >= 0; i-- {
		if _, err := v.popExpect(types[i]); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) pushVals(types []wasm.ValueType) {
	for _, t := range types {
		v.pushVal(t)
	}
}

func (v *validator) pushCtrl(op wasm.Opcode, in, out []wasm.ValueType) {
	v.ctrls = append(v.ctrls, ctrlFrame{
		op:         op,
		startTypes: in,
		endTypes:   out,
		height:     len(v.vals),
		stpAtStart: len(v.side),
		ipAtStart:  v.r.Pos,
		endFixup:   noFixup,
		ifFixup:    -1,
	})
	v.pushVals(in)
}

// popCtrl pops the innermost frame and returns it, still in place in
// the control stack's buffer until the next pushCtrl.
func (v *validator) popCtrl() (*ctrlFrame, error) {
	if len(v.ctrls) == 0 {
		return nil, v.fail("control stack underflow")
	}
	frame := &v.ctrls[len(v.ctrls)-1]
	if err := v.popVals(frame.endTypes); err != nil {
		return nil, err
	}
	if len(v.vals) != frame.height {
		return nil, v.fail("%d superfluous values at end of block", len(v.vals)-frame.height)
	}
	v.ctrls = v.ctrls[:len(v.ctrls)-1]
	v.pushVals(frame.endTypes)
	return frame, nil
}

func (v *validator) setUnreachable() {
	frame := &v.ctrls[len(v.ctrls)-1]
	v.vals = v.vals[:frame.height]
	frame.unreachable = true
}

func (v *validator) frameAt(depth uint32) (*ctrlFrame, error) {
	if int(depth) >= len(v.ctrls) {
		return nil, v.fail("branch depth %d exceeds control stack depth %d", depth, len(v.ctrls))
	}
	return &v.ctrls[len(v.ctrls)-1-int(depth)], nil
}

// emitBranch emits a sidetable entry for a branch to the given frame and
// returns the entry index. Backward (loop) targets are resolved
// immediately; forward targets are appended to the frame's fixup list.
func (v *validator) emitBranch(frame *ctrlFrame) int {
	arity := frame.labelArity()
	pop := len(v.vals) - arity - frame.height
	if pop < 0 {
		pop = 0 // only possible in unreachable code; entry never runs
	}
	idx := len(v.side)
	v.owners = append(v.owners, uint32(v.in.PC))
	e := SidetableEntry{ValCount: uint32(arity), PopCount: uint32(pop)}
	if frame.op == wasm.OpLoop {
		e.TargetIP = uint32(frame.ipAtStart)
		e.TargetSTP = uint32(frame.stpAtStart)
	} else {
		e.TargetIP, frame.endFixup = frame.endFixup, uint32(idx)
	}
	v.side = append(v.side, e)
	return idx
}

// blockType decodes a block type immediate into in.In and in.Out.
func (v *validator) blockType(in *Instr) error {
	bt, err := v.r.S33()
	if err != nil {
		return err
	}
	in.In, in.Out = nil, nil
	switch {
	case bt >= 0:
		if int(bt) >= len(v.m.Types) {
			return v.fail("block type index %d out of range", bt)
		}
		t := v.m.Types[bt]
		in.In, in.Out = t.Params, t.Results
	case bt != -64: // 0x40: empty
		if in.Out = wasm.ValueType(byte(bt & 0x7F)).Single(); in.Out == nil {
			return v.fail("invalid block type %d", bt)
		}
	}
	return nil
}

// instr checks op and records its decoded immediates in in.
func (v *validator) instr(op wasm.Opcode, in *Instr) error {
	// Simple instructions are fully described by their static signature.
	s := op.Shape()
	if s.Simple {
		if s.Imm != wasm.ImmNone {
			if err := v.memCheck(op, s.Imm, in); err != nil {
				return err
			}
		}
		// Operands of the expected types above the frame's base pop in
		// one step; anything else (underflow, a mismatch, the unknown
		// type of unreachable code) takes popVals for its checks.
		params := s.Params[:s.NParams]
		base := len(v.vals) - len(params)
		if base >= v.ctrls[len(v.ctrls)-1].height && sameTypes(v.vals[base:], params) {
			v.vals = v.vals[:base]
		} else if err := v.popVals(params); err != nil {
			return err
		}
		if s.NResults != 0 {
			v.pushVal(s.Result)
		}
		return nil
	}

	// The index immediate most other instructions start with.
	switch s.Imm {
	case wasm.ImmLabel, wasm.ImmFunc, wasm.ImmCallInd, wasm.ImmLocal, wasm.ImmGlobal:
		idx, err := v.r.U32()
		if err != nil {
			return err
		}
		if s.Imm == wasm.ImmLocal && int(idx) >= len(v.locals) {
			return v.fail("local index %d out of range", idx)
		}
		in.Idx = idx
	}

	switch op {
	case wasm.OpUnreachable:
		v.setUnreachable()
	case wasm.OpNop:
	case wasm.OpBlock, wasm.OpLoop:
		if err := v.blockType(in); err != nil {
			return err
		}
		if err := v.popVals(in.In); err != nil {
			return err
		}
		v.pushCtrl(op, in.In, in.Out)
	case wasm.OpIf:
		if err := v.blockType(in); err != nil {
			return err
		}
		if _, err := v.popExpect(wasm.I32); err != nil {
			return err
		}
		if err := v.popVals(in.In); err != nil {
			return err
		}
		v.pushCtrl(wasm.OpIf, in.In, in.Out)
		frame := &v.ctrls[len(v.ctrls)-1]
		// The if's false edge: target patched at else or end.
		frame.ifFixup = len(v.side)
		v.owners = append(v.owners, uint32(v.in.PC))
		v.side = append(v.side, SidetableEntry{
			ValCount: uint32(len(in.In)),
		})
	case wasm.OpElse:
		if len(v.ctrls) == 0 || v.ctrls[len(v.ctrls)-1].op != wasm.OpIf {
			return v.fail("else outside if")
		}
		frame := v.ctrls[len(v.ctrls)-1]
		if _, err := v.popCtrl(); err != nil {
			return err
		}
		// Pop the just-pushed results; the else arm starts fresh.
		if err := v.popVals(frame.endTypes); err != nil {
			return err
		}
		v.pushCtrl(wasm.OpIf, frame.startTypes, frame.endTypes)
		nf := &v.ctrls[len(v.ctrls)-1]
		nf.hasElse = true
		// This entry jumps from the end of the then-arm past end.
		elseEntry := len(v.side)
		v.owners = append(v.owners, uint32(v.in.PC))
		// Branches inside the then-arm that target this label must
		// still be patched at end; this entry joins their chain.
		v.side = append(v.side, SidetableEntry{
			TargetIP: frame.endFixup,
			ValCount: uint32(len(frame.endTypes)),
		})
		nf.endFixup = uint32(elseEntry)
		// Patch the if's false edge to just after the else opcode.
		if frame.ifFixup >= 0 {
			v.side[frame.ifFixup].TargetIP = uint32(v.r.Pos)
			v.side[frame.ifFixup].TargetSTP = uint32(len(v.side))
		}
	case wasm.OpEnd:
		frame, err := v.popCtrl()
		if err != nil {
			return err
		}
		if frame.op == wasm.OpIf && !frame.hasElse && frame.ifFixup >= 0 {
			// if without else: types must satisfy in == out.
			if !sameTypes(frame.startTypes, frame.endTypes) {
				return v.fail("if without else requires matching params and results")
			}
		}
		endIP := uint32(v.r.Pos)
		endSTP := uint32(len(v.side))
		if frame.op == wasm.OpIf && !frame.hasElse && frame.ifFixup >= 0 {
			v.side[frame.ifFixup].TargetIP = endIP
			v.side[frame.ifFixup].TargetSTP = endSTP
		}
		for fixup := frame.endFixup; fixup != noFixup; {
			e := &v.side[fixup]
			fixup = e.TargetIP
			e.TargetIP, e.TargetSTP = endIP, endSTP
		}
		// The end of the outermost frame is the function return; no
		// sidetable entry needed, the interpreter returns directly.
	case wasm.OpBr:
		frame, err := v.frameAt(in.Idx)
		if err != nil {
			return err
		}
		if err := v.popVals(frame.labelTypes()); err != nil {
			return err
		}
		// Restore stack for emitBranch height computation: the branch
		// transfers labelTypes; emit with them conceptually present.
		v.pushVals(frame.labelTypes())
		v.emitBranch(frame)
		if err := v.popVals(frame.labelTypes()); err != nil {
			return err
		}
		v.setUnreachable()
	case wasm.OpBrIf:
		if _, err := v.popExpect(wasm.I32); err != nil {
			return err
		}
		frame, err := v.frameAt(in.Idx)
		if err != nil {
			return err
		}
		if err := v.popVals(frame.labelTypes()); err != nil {
			return err
		}
		v.pushVals(frame.labelTypes())
		v.emitBranch(frame)
	case wasm.OpBrTable:
		n, err := v.r.U32()
		if err != nil {
			return err
		}
		if _, err := v.popExpect(wasm.I32); err != nil {
			return err
		}
		// Every target takes at least one byte, which bounds the vector
		// before it is sized from an attacker-chosen count.
		if int64(n) >= int64(v.r.Len()) {
			return wasm.ErrUnexpectedEOF
		}
		targets := v.targets[:0]
		for i := uint32(0); i <= n; i++ {
			depth, err := v.r.U32()
			if err != nil {
				return err
			}
			targets = append(targets, depth)
		}
		v.targets = targets
		in.Targets = targets
		// All targets must agree on arity; validate against the
		// default's label types.
		def, err := v.frameAt(targets[n])
		if err != nil {
			return err
		}
		arity := def.labelArity()
		for _, depth := range targets {
			frame, err := v.frameAt(depth)
			if err != nil {
				return err
			}
			if frame.labelArity() != arity {
				return v.fail("br_table targets have inconsistent arity")
			}
		}
		if err := v.popVals(def.labelTypes()); err != nil {
			return err
		}
		v.pushVals(def.labelTypes())
		for _, depth := range targets {
			frame, _ := v.frameAt(depth)
			v.emitBranch(frame)
		}
		if err := v.popVals(def.labelTypes()); err != nil {
			return err
		}
		v.setUnreachable()
	case wasm.OpReturn:
		if err := v.popVals(v.info.Results); err != nil {
			return err
		}
		v.setUnreachable()
	case wasm.OpCall:
		ft, err := v.m.FuncTypeAt(in.Idx)
		if err != nil {
			return v.fail("%v", err)
		}
		in.In, in.Out = ft.Params, ft.Results
		v.callees = append(v.callees, in.Idx)
		if err := v.popVals(ft.Params); err != nil {
			return err
		}
		v.pushVals(ft.Results)
	case wasm.OpCallIndirect:
		typeIdx := in.Idx
		tableIdx, err := v.r.U32()
		if err != nil {
			return err
		}
		if int(tableIdx) >= v.numTables {
			return v.fail("call_indirect: table %d out of range", tableIdx)
		}
		if int(typeIdx) >= len(v.m.Types) {
			return v.fail("call_indirect: type %d out of range", typeIdx)
		}
		v.writes = true // unknown callee
		if _, err := v.popExpect(wasm.I32); err != nil {
			return err
		}
		ft := v.m.Types[typeIdx]
		in.Imm, in.In, in.Out = uint64(tableIdx), ft.Params, ft.Results
		if err := v.popVals(ft.Params); err != nil {
			return err
		}
		v.pushVals(ft.Results)
	case wasm.OpDrop:
		if _, err := v.popVal(); err != nil {
			return err
		}
	case wasm.OpSelect:
		if _, err := v.popExpect(wasm.I32); err != nil {
			return err
		}
		t1, err := v.popVal()
		if err != nil {
			return err
		}
		t2, err := v.popVal()
		if err != nil {
			return err
		}
		if t1 != unknownType && t1.IsRef() || t2 != unknownType && t2.IsRef() {
			return v.fail("select requires numeric operands; use typed select for references")
		}
		if t1 != t2 && t1 != unknownType && t2 != unknownType {
			return v.fail("select operand types differ: %v vs %v", t1, t2)
		}
		if t1 == unknownType {
			v.pushVal(t2)
		} else {
			v.pushVal(t1)
		}
	case wasm.OpSelectT:
		n, err := v.r.U32()
		if err != nil {
			return err
		}
		if n != 1 {
			return v.fail("typed select must list exactly one type")
		}
		b, err := v.r.Byte()
		if err != nil {
			return err
		}
		t := wasm.ValueType(b)
		if !t.Valid() {
			return v.fail("typed select: invalid type 0x%02x", b)
		}
		if _, err := v.popExpect(wasm.I32); err != nil {
			return err
		}
		if _, err := v.popExpect(t); err != nil {
			return err
		}
		if _, err := v.popExpect(t); err != nil {
			return err
		}
		v.pushVal(t)
	case wasm.OpLocalGet:
		v.pushVal(v.locals[in.Idx])
	case wasm.OpLocalSet, wasm.OpLocalTee:
		if _, err := v.popExpect(v.locals[in.Idx]); err != nil {
			return err
		}
		if op == wasm.OpLocalTee {
			v.pushVal(v.locals[in.Idx])
		}
	case wasm.OpGlobalGet, wasm.OpGlobalSet:
		t, mut, err := v.m.GlobalTypeAt(in.Idx)
		if err != nil {
			return v.fail("%v", err)
		}
		in.Type = t
		if op == wasm.OpGlobalGet {
			v.pushVal(t)
			break
		}
		if !mut {
			return v.fail("global.set of immutable global %d", in.Idx)
		}
		if _, err := v.popExpect(t); err != nil {
			return err
		}
	case wasm.OpRefNull:
		b, err := v.r.Byte()
		if err != nil {
			return err
		}
		t := wasm.ValueType(b)
		if !t.IsRef() {
			return v.fail("ref.null: invalid heap type 0x%02x", b)
		}
		v.pushVal(t)
	case wasm.OpRefIsNull:
		t, err := v.popVal()
		if err != nil {
			return err
		}
		if t != unknownType && !t.IsRef() {
			return v.fail("ref.is_null on non-reference %v", t)
		}
		v.pushVal(wasm.I32)
	case wasm.OpRefFunc:
		if int(in.Idx) >= v.m.NumFuncs() {
			return v.fail("ref.func: function index %d out of range", in.Idx)
		}
		v.pushVal(wasm.FuncRef)
	default:
		return v.fail("unknown or unsupported opcode %v", op)
	}
	return nil
}

// memCheck decodes the immediates of a simple instruction into in,
// verifies memory presence and alignment for the ones that touch memory,
// and notes the ones that can modify memory in v.writes.
func (v *validator) memCheck(op wasm.Opcode, imm wasm.ImmKind, in *Instr) error {
	switch imm {
	case wasm.ImmMem:
		align, err := v.r.U32()
		if err != nil {
			return err
		}
		offset, err := v.r.U32()
		if err != nil {
			return err
		}
		in.Imm = uint64(offset)
		if v.numMemories == 0 {
			return v.fail("%v without declared memory", op)
		}
		if align > naturalAlign(op) {
			return v.fail("%v alignment 2^%d exceeds natural alignment", op, align)
		}
		if op >= wasm.OpI32Store { // the stores are the last ImmMem opcodes
			v.writes = true
		}
	case wasm.ImmMemOnly, wasm.ImmOneMem:
		if _, err := v.r.Byte(); err != nil {
			return err
		}
		if v.numMemories == 0 {
			return v.fail("%v without declared memory", op)
		}
		if op != wasm.OpMemorySize { // memory.grow, memory.fill
			v.writes = true
		}
	case wasm.ImmTwoMem:
		if _, err := v.r.Byte(); err != nil {
			return err
		}
		if _, err := v.r.Byte(); err != nil {
			return err
		}
		if v.numMemories == 0 {
			return v.fail("%v without declared memory", op)
		}
		v.writes = true // memory.copy
	case wasm.ImmI32:
		k, err := v.r.S32()
		if err != nil {
			return err
		}
		in.Imm = uint64(uint32(k))
	case wasm.ImmI64:
		k, err := v.r.S64()
		if err != nil {
			return err
		}
		in.Imm = uint64(k)
	case wasm.ImmF32:
		bits, err := v.r.F32()
		if err != nil {
			return err
		}
		in.Imm = uint64(bits)
	case wasm.ImmF64:
		bits, err := v.r.F64()
		if err != nil {
			return err
		}
		in.Imm = bits
	}
	return nil
}

func naturalAlign(op wasm.Opcode) uint32 {
	switch op {
	case wasm.OpI32Load8S, wasm.OpI32Load8U, wasm.OpI64Load8S, wasm.OpI64Load8U,
		wasm.OpI32Store8, wasm.OpI64Store8:
		return 0
	case wasm.OpI32Load16S, wasm.OpI32Load16U, wasm.OpI64Load16S, wasm.OpI64Load16U,
		wasm.OpI32Store16, wasm.OpI64Store16:
		return 1
	case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI32Store, wasm.OpF32Store,
		wasm.OpI64Load32S, wasm.OpI64Load32U, wasm.OpI64Store32:
		return 2
	default:
		return 3
	}
}

func sameTypes(a, b []wasm.ValueType) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
