package mach

import (
	"errors"
	"fmt"
	"sort"

	"wizgo/internal/wasm"
	"wizgo/internal/wbin"
)

// ErrNotSerializable reports a code object carrying per-instance state
// (probe references, an invalidation in progress) that must never reach
// a shared artifact, or one whose pc map does not cover its
// instructions. Engine.Compile always compiles probe-free, so hitting
// this on the cache path is a bug, not an input condition.
var ErrNotSerializable = errors.New("mach: code with instance state is not serializable")

// AppendTo serializes the code object for the persistent artifact
// cache. The encoding is position-independent by construction — branch
// targets are machine pcs relative to the function's own instruction
// stream — which is what makes baseline-compiled functions cheap to
// persist and reload (the copy-and-patch observation).
func (c *Code) AppendTo(w *wbin.Writer) error {
	if len(c.Counters) != 0 || len(c.TosProbes) != 0 || c.Invalidated || len(c.WasmPC) != len(c.Instrs) {
		return ErrNotSerializable
	}
	w.Uvarint(uint64(c.FuncIdx))
	w.String(c.Name)

	// One compact record per instruction (see wbin.Record); the pc map
	// rides along as each record's side value, delta-coded, because an
	// instruction's bytecode offset is almost always a few bytes past
	// its predecessor's.
	w.Uvarint(uint64(len(c.Instrs)))
	prev := int32(0)
	for i := range c.Instrs {
		in, pc := &c.Instrs[i], c.WasmPC[i]
		w.Record(uint64(in.Op), in.A, in.B, in.C, in.Imm, pc-prev)
		prev = pc
	}

	// Maps are encoded in sorted key order so one compile always yields
	// byte-identical artifacts (content-addressed stores dedupe on it).
	w.Uvarint(uint64(len(c.OSREntries)))
	for _, k := range sortedKeys(c.OSREntries) {
		w.Varint(int64(k))
		w.Varint(int64(c.OSREntries[k]))
	}

	w.Uvarint(uint64(len(c.Tables)))
	for _, t := range c.Tables {
		w.Uvarint(uint64(len(t)))
		for _, target := range t {
			w.Varint(int64(target))
		}
	}

	w.Uvarint(uint64(len(c.Stackmaps)))
	for _, k := range sortedKeys(c.Stackmaps) {
		w.Varint(int64(k))
		slots := c.Stackmaps[k]
		w.Uvarint(uint64(len(slots)))
		for _, s := range slots {
			w.Varint(int64(s))
		}
	}

	w.Uvarint(uint64(c.NumSlots))
	w.Uvarint(uint64(c.NumResults))
	w.Uvarint(uint64(c.NumParams))
	w.Uvarint(uint64(len(c.LocalTypes)))
	for _, t := range c.LocalTypes {
		w.U8(uint8(t))
	}
	w.Uvarint(uint64(c.CodeBytes))
	return nil
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// DecodeArena preallocates one artifact's worth of code-object bulk
// storage in a handful of contiguous blocks. Cold-start rehydration is
// dominated not by decoding but by allocation — dozens of small makes
// that each risk growing a fresh process's heap by another faulted-in
// span — so the artifact header records exact totals and DecodeCode
// sub-slices from these blocks instead. An exhausted or nil arena
// degrades to plain allocation, so corrupt totals cost speed, never
// correctness.
type DecodeArena struct {
	codes  []Code
	instrs []Instr
	pcs    []int32
	types  []wasm.ValueType
}

// NewDecodeArena sizes an arena for nCodes code objects holding
// nInstrs instructions (each with its pc-map entry) and nTypes local
// types in total. Callers must validate the totals against the input
// length before trusting them with an allocation.
func NewDecodeArena(nCodes, nInstrs, nTypes int) *DecodeArena {
	return &DecodeArena{
		codes:  make([]Code, 0, nCodes),
		instrs: make([]Instr, 0, nInstrs),
		pcs:    make([]int32, 0, nInstrs),
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

func (a *DecodeArena) takePCs(n int) []int32 {
	if a == nil || len(a.pcs)+n > cap(a.pcs) {
		return make([]int32, n)
	}
	s := a.pcs[len(a.pcs) : len(a.pcs)+n]
	a.pcs = a.pcs[:len(a.pcs)+n]
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

// DecodeCode reconstructs a serialized code object, drawing bulk
// storage from arena (which may be nil). Every length comes
// from (possibly corrupt) disk bytes, so it is validated against the
// remaining input before allocation; structural nonsense surfaces as an
// error, never a panic. The instruction stream is bounds-checked as it
// is decoded — opcodes, every branch target, every br_table index, OSR
// entries — so an artifact that is wrong under a valid envelope
// checksum still cannot send the executor's code[pc] out of range.
func DecodeCode(r *wbin.Reader, arena *DecodeArena) (*Code, error) {
	c := arena.nextCode()
	c.FuncIdx = uint32(r.Uvarint())
	c.Name = r.String()

	nInstr := r.Count(wbin.MinRecordLen)
	c.Instrs = arena.takeInstrs(nInstr)
	c.WasmPC = arena.takePCs(nInstr)
	pc, maxTable := int32(0), int64(-1)
	for i := range c.Instrs {
		op, a, b, cc, imm, dpc := r.Record()
		if op >= uint64(opCount) {
			return nil, fmt.Errorf("mach: decoded opcode %d out of range", op)
		}
		// OJump through the last fused compare-and-branch are one
		// contiguous opcode range whose Imm is a machine pc, except
		// OBrTable, whose A indexes Tables (decoded further down).
		if op-uint64(OJump) <= uint64(OBrI64GeU-OJump) {
			if Op(op) == OBrTable {
				maxTable = max(maxTable, int64(uint32(a)))
			} else if imm >= uint64(nInstr) {
				return nil, fmt.Errorf("mach: instr %d branch target %d out of range", i, imm)
			}
		}
		pc += dpc
		// Field by field: assigning an Instr literal builds it on the
		// stack and copies it with wider loads than the stores that
		// wrote it, a store-forwarding stall per instruction that cost
		// more than the decoding.
		in := &c.Instrs[i]
		in.Op, in.A, in.B, in.C, in.Imm = Op(op), a, b, cc, imm
		c.WasmPC[i] = pc
	}
	if err := r.Err(); err != nil {
		return nil, err
	}

	if n := r.Count(2); n > 0 {
		c.OSREntries = make(map[int]int, n)
		for i := 0; i < n; i++ {
			k := int(r.Varint())
			v := int(r.Varint())
			if v < 0 || v >= len(c.Instrs) {
				return nil, fmt.Errorf("mach: OSR entry pc %d out of range", v)
			}
			c.OSREntries[k] = v
		}
	}

	if n := r.Count(1); n > 0 {
		c.Tables = make([][]int32, n)
		for i := range c.Tables {
			m := r.Count(1)
			if m == 0 && r.Err() == nil {
				// OBrTable clamps its index to len-1.
				return nil, errors.New("mach: empty br_table vector")
			}
			c.Tables[i] = make([]int32, m)
			for j := range c.Tables[i] {
				t := r.Varint()
				if t < 0 || t >= int64(len(c.Instrs)) {
					return nil, fmt.Errorf("mach: br_table target %d out of range", t)
				}
				c.Tables[i][j] = int32(t)
			}
		}
	}
	if maxTable >= int64(len(c.Tables)) {
		return nil, fmt.Errorf("mach: br_table index %d of %d tables", maxTable, len(c.Tables))
	}

	if n := r.Count(2); n > 0 {
		c.Stackmaps = make(map[int][]int32, n)
		for i := 0; i < n; i++ {
			k := int(r.Varint())
			m := r.Count(1)
			slots := make([]int32, m)
			for j := range slots {
				slots[j] = int32(r.Varint())
			}
			c.Stackmaps[k] = slots
		}
	}

	c.NumSlots = int(r.Uvarint())
	c.NumResults = int(r.Uvarint())
	c.NumParams = int(r.Uvarint())
	nLocals := r.Count(1)
	c.LocalTypes = arena.takeTypes(nLocals)
	for i := range c.LocalTypes {
		c.LocalTypes[i] = wasm.ValueType(r.U8())
	}
	c.CodeBytes = int(r.Uvarint())

	if err := r.Err(); err != nil {
		return nil, err
	}
	if c.NumSlots < 0 || c.NumResults < 0 || c.NumParams < 0 {
		return nil, errors.New("mach: negative frame dimension")
	}
	return c, nil
}
