// Package rt defines the shared runtime substrate of the engine: the
// value stack with its value tags, execution frames, module instances,
// memories, tables, globals, traps, and the probe (instrumentation)
// interfaces. Every execution tier — the in-place interpreter, the
// single-pass compiler's machine code, the optimizing tier and the
// rewriting interpreter — operates on these same structures. That shared
// layout is precisely the design point of Wizard-SPC the paper
// describes: interpreter frames and JIT frames use one value stack
// representation, so tier-up (OSR) and tier-down (deopt) rewrite only
// the execution frame, never the values.
package rt

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"wizgo/internal/faultinject"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// TrapKind enumerates Wasm traps.
type TrapKind uint8

const (
	TrapNone TrapKind = iota
	TrapUnreachable
	TrapDivByZero
	TrapIntOverflow
	TrapInvalidConversion
	TrapOOBMemory
	TrapOOBTable
	TrapIndirectSigMismatch
	TrapNullFunc
	TrapStackOverflow
	TrapMemoryLimit
	TrapHostError
	// TrapInterrupted reports that execution was aborted by an armed
	// interrupt flag (context cancellation or deadline; see
	// Context.Interrupt). Executors poll the flag at function entry and
	// on loop back-edges, so a runaway guest unwinds within one loop
	// iteration instead of hanging its goroutine.
	TrapInterrupted
	// TrapHostPanic reports that an imported host function panicked.
	// The engine's host-call bridge recovers the panic, converts it to
	// this trap, and poisons the instance (Instance.Poisoned) so pooled
	// reuse refuses possibly-corrupt state instead of recycling it.
	TrapHostPanic
	// TrapFuelExhausted reports that the per-call fuel budget
	// (Context.Fuel) ran out. Fuel is charged deterministically — one
	// unit per function entry and one per loop-header execution, in
	// every tier — so the same budget traps at the same checkpoint
	// regardless of which executor ran the code.
	TrapFuelExhausted
	// trapKindCount is the number of trap kinds; keep it last.
	trapKindCount
)

func (k TrapKind) String() string {
	switch k {
	case TrapUnreachable:
		return "unreachable executed"
	case TrapDivByZero:
		return "integer divide by zero"
	case TrapIntOverflow:
		return "integer overflow"
	case TrapInvalidConversion:
		return "invalid conversion to integer"
	case TrapOOBMemory:
		return "out of bounds memory access"
	case TrapOOBTable:
		return "out of bounds table access"
	case TrapIndirectSigMismatch:
		return "indirect call type mismatch"
	case TrapNullFunc:
		return "null function reference"
	case TrapStackOverflow:
		return "call stack exhausted"
	case TrapMemoryLimit:
		return "memory limit exceeded"
	case TrapHostError:
		return "host function error"
	case TrapInterrupted:
		return "execution interrupted"
	case TrapHostPanic:
		return "host function panicked"
	case TrapFuelExhausted:
		return "fuel exhausted"
	}
	return "unknown trap"
}

// Trap is the error produced when Wasm execution traps.
type Trap struct {
	Kind    TrapKind
	FuncIdx uint32
	PC      int
	Wrapped error
}

func (t *Trap) Error() string {
	if t.Wrapped != nil {
		return fmt.Sprintf("trap: %s: %v (func %d, pc +%d)", t.Kind, t.Wrapped, t.FuncIdx, t.PC)
	}
	return fmt.Sprintf("trap: %s (func %d, pc +%d)", t.Kind, t.FuncIdx, t.PC)
}

// Unwrap exposes the wrapped cause so errors.Is/As see through traps
// (e.g. a TrapInterrupted carrying context.DeadlineExceeded).
func (t *Trap) Unwrap() error { return t.Wrapped }

// NewTrap constructs a trap error and counts it in the process-wide
// telemetry registry (wizgo_traps_total by kind). All tiers' trap
// paths construct through here so the counters see every trap.
func NewTrap(kind TrapKind, funcIdx uint32, pc int) *Trap {
	countTrap(kind)
	return &Trap{Kind: kind, FuncIdx: funcIdx, PC: pc}
}

// NewTrapWrapped constructs a counted trap carrying a cause, visible to
// errors.Is/As through Unwrap (e.g. a host error or a cancellation).
func NewTrapWrapped(kind TrapKind, funcIdx uint32, pc int, wrapped error) *Trap {
	countTrap(kind)
	return &Trap{Kind: kind, FuncIdx: funcIdx, PC: pc, Wrapped: wrapped}
}

// TagMode selects the value-tagging strategy of compiled code — the
// central design axis of the paper's Section IV-C and Figure 5.
type TagMode uint8

const (
	// TagsNone: no tags written at all (the best-case baseline of Fig 5;
	// GC root scanning is unavailable).
	TagsNone TagMode = iota
	// TagsEager: store the tag at every instruction that writes a slot,
	// exactly as the interpreter does (the worst case of Fig 5).
	TagsEager
	// TagsEagerOperands: eager tags for operand stack slots only.
	TagsEagerOperands
	// TagsEagerLocals: eager tags for local slots only.
	TagsEagerLocals
	// TagsOnDemand: the Wizard-SPC default. The compiler's abstract
	// state tracks tag freshness per slot; tags are stored only across
	// observation points (calls, traps, probes).
	TagsOnDemand
	// TagsLazy: like on-demand, but tags for locals are never stored;
	// the stack walker reconstructs them from the function's local
	// declarations.
	TagsLazy
)

func (m TagMode) String() string {
	switch m {
	case TagsNone:
		return "notags"
	case TagsEager:
		return "eagertags"
	case TagsEagerOperands:
		return "eagertags-o"
	case TagsEagerLocals:
		return "eagertags-l"
	case TagsOnDemand:
		return "on-demand"
	case TagsLazy:
		return "lazytags"
	}
	return "tagmode?"
}

// ValueStack is the explicit value stack shared by all execution tiers:
// a slot array and a parallel tag array. Wizard keeps tags out-of-line
// (a separate array rather than interleaved) so that slot accesses stay
// 8-byte aligned; BenchmarkTagLayout in the harness quantifies why.
//
// The arrays start small and double on demand up to a hard cap, so an
// instance that never recurses deeply never pays for (or zeroes) the
// cap. Growth replaces Slots and Tags: code that holds either across a
// call must notice (len(Slots) only ever increases) and re-read them.
type ValueStack struct {
	Slots []uint64
	Tags  []wasm.Tag

	// max is the cap in slots; limit is the highest frame end the
	// current arrays admit, len(Slots)-stackRedZone, precomputed so
	// Context.CheckStack compares against one field.
	max   int
	limit int
}

const (
	// initialStackSlots is what a new stack allocates: 32 KB of slots
	// and 4 KB of tags.
	initialStackSlots = 4096
	// stackRedZone is the slack kept above every checked frame.
	stackRedZone = 64
)

// NewValueStack makes a stack that may grow to capacity slots.
func NewValueStack(capacity int, withTags bool) *ValueStack {
	n := min(capacity, initialStackSlots)
	vs := &ValueStack{Slots: make([]uint64, n), max: capacity, limit: n - stackRedZone}
	if withTags {
		vs.Tags = make([]wasm.Tag, n)
	}
	return vs
}

// grow doubles the arrays until a frame ending at need fits, clamped to
// the cap, and reports whether it does. Contents are preserved.
func (vs *ValueStack) grow(need int) bool {
	if need > vs.max-stackRedZone {
		return false
	}
	n := len(vs.Slots)
	for n-stackRedZone < need {
		n = min(2*n, vs.max)
	}
	slots := make([]uint64, n)
	copy(slots, vs.Slots)
	vs.Slots = slots
	if vs.Tags != nil {
		tags := make([]wasm.Tag, n)
		copy(tags, vs.Tags)
		vs.Tags = tags
	}
	vs.limit = n - stackRedZone
	return true
}

// Write-tracking granularity: instance-pool reset copies back snapshot
// bytes per granule, so the granule must be small enough that a run
// touching a few buffers does not dirty the whole memory, and large
// enough that the bitmap stays tiny (32 B of bitmap per 1 MiB of
// memory at 4 KiB granules).
const (
	DirtyGranuleShift = 12
	DirtyGranule      = 1 << DirtyGranuleShift
)

// Memory is a linear memory instance.
//
// A memory can optionally track which granules (DirtyGranule-sized
// blocks) have been written since EnableWriteTracking, the mechanism
// behind copy-on-write instance reset: executors call Mark on every
// store, and ResetTo replays a snapshot over only the dirty granules.
// Tracking state is not goroutine-safe — like Data itself, it assumes
// one execution context mutates the memory at a time.
type Memory struct {
	Data []byte
	// MaxPages caps growth; engines clamp it so benchmarks stay small.
	MaxPages uint32

	// dirty is the granule bitmap (nil = tracking off); dirtyCount is
	// the number of set bits. grown records that Grow replaced Data (or
	// a host mutated memory out of band via MarkAll), which invalidates
	// per-granule accounting until the next full reset.
	dirty      []uint64
	dirtyCount int
	grown      bool
}

// NewMemory allocates a memory from limits.
func NewMemory(lim wasm.Limits) *Memory {
	maxPages := uint32(wasm.MaxPages)
	if lim.HasMax && lim.Max < maxPages {
		maxPages = lim.Max
	}
	return &Memory{
		Data:     make([]byte, int(lim.Min)*wasm.PageSize),
		MaxPages: maxPages,
	}
}

// Pages returns the current size in pages.
func (m *Memory) Pages() uint32 { return uint32(len(m.Data) / wasm.PageSize) }

// PointMemGrow is the fault-injection point for memory growth: an
// armed fault makes Grow report failure (-1), the same well-defined
// result the guest sees when the memory limit is reached.
var PointMemGrow = faultinject.Register("rt.memory.grow")

// Grow grows by delta pages, returning the previous page count or -1.
func (m *Memory) Grow(delta uint32) int32 {
	old := m.Pages()
	if delta == 0 {
		return int32(old)
	}
	next := uint64(old) + uint64(delta)
	if next > uint64(m.MaxPages) {
		return -1
	}
	if faultinject.Fire(PointMemGrow) != nil {
		return -1
	}
	grown := make([]byte, next*wasm.PageSize)
	copy(grown, m.Data)
	m.Data = grown
	if m.dirty != nil {
		// A grown memory no longer matches the snapshot shape, so the
		// next reset must be a full restore; the bitmap still has to
		// cover the new size so Mark stays in bounds until then.
		m.grown = true
		if need := bitmapWords(len(m.Data)); need > len(m.dirty) {
			bigger := make([]uint64, need)
			copy(bigger, m.dirty)
			m.dirty = bigger
		}
	}
	return int32(old)
}

// InBounds reports whether an access of size bytes at addr+offset fits.
func (m *Memory) InBounds(addr, offset uint32, size int) bool {
	eff := uint64(addr) + uint64(offset)
	return eff+uint64(size) <= uint64(len(m.Data))
}

func bitmapWords(dataLen int) int {
	granules := (dataLen + DirtyGranule - 1) >> DirtyGranuleShift
	return (granules + 63) / 64
}

// EnableWriteTracking starts recording which granules of the memory are
// written. The current contents become the implicit baseline: a
// subsequent ResetTo with a snapshot of this state touches only the
// granules dirtied in between.
func (m *Memory) EnableWriteTracking() {
	m.dirty = make([]uint64, bitmapWords(len(m.Data)))
	m.dirtyCount = 0
	m.grown = false
}

// WriteTracking reports whether the memory records writes.
func (m *Memory) WriteTracking() bool { return m.dirty != nil }

// Mark records a write of size bytes at addr+offset (the same
// coordinates InBounds checks). Executors call it on every store,
// memory.copy and memory.fill; when tracking is off it is a single
// predictable branch.
func (m *Memory) Mark(addr, offset uint32, size int) {
	if m.dirty != nil {
		m.mark(int(addr)+int(offset), size)
	}
}

// mark is kept out of line so that Mark's fast path (one nil check)
// stays under the inlining budget — executors then pay a single
// predictable branch per store while tracking is off.
//
//go:noinline
func (m *Memory) mark(at, size int) {
	if size <= 0 {
		return
	}
	first := at >> DirtyGranuleShift
	last := (at + size - 1) >> DirtyGranuleShift
	for g := first; g <= last; g++ {
		w, bit := g>>6, uint64(1)<<(g&63)
		if w >= len(m.dirty) {
			// Out-of-band mutation past the tracked range (should not
			// happen — Grow resizes the bitmap); degrade to full reset.
			m.grown = true
			return
		}
		if m.dirty[w]&bit == 0 {
			m.dirty[w] |= bit
			m.dirtyCount++
		}
	}
}

// MarkAll declares the whole memory dirty — the escape hatch for host
// functions that write linear memory without going through an executor.
// The next ResetTo falls back to a full restore.
func (m *Memory) MarkAll() {
	if m.dirty != nil {
		m.grown = true
	}
}

// DirtyGranules returns the number of granules written since tracking
// was enabled (or the last reset).
func (m *Memory) DirtyGranules() int { return m.dirtyCount }

// Grown reports whether per-granule accounting was invalidated (Grow or
// MarkAll) since the last reset.
func (m *Memory) Grown() bool { return m.grown }

// fullWipeDenominator: when at least 1/fullWipeDenominator of the
// granules are dirty, per-granule replay loses to one sequential copy
// of the whole snapshot, so ResetTo switches strategy.
const fullWipeDenominator = 2

// ResetTo restores Data to exactly the snapshot taken when the memory
// was in its baseline state, using the dirty bitmap to copy back only
// the granules written since — so reset cost is proportional to
// mutation, not memory size. Past the dirtiness threshold, after a
// Grow, or without tracking, it falls back to a full wipe. It returns
// the bytes copied and whether the full path ran; tracking (if enabled)
// restarts clean against the restored baseline.
func (m *Memory) ResetTo(snapshot []byte) (copied int, full bool) {
	granules := (len(snapshot) + DirtyGranule - 1) >> DirtyGranuleShift
	sparse := m.dirty != nil && !m.grown && len(m.Data) == len(snapshot) &&
		m.dirtyCount*fullWipeDenominator < granules
	if !sparse {
		if cap(m.Data) >= len(snapshot) {
			m.Data = m.Data[:len(snapshot)]
		} else {
			m.Data = make([]byte, len(snapshot))
		}
		copy(m.Data, snapshot)
		if m.dirty != nil {
			clear(m.dirty)
			m.dirtyCount = 0
			m.grown = false
		}
		return len(snapshot), true
	}
	for w := 0; w < len(m.dirty) && m.dirtyCount > 0; w++ {
		word := m.dirty[w]
		if word == 0 {
			continue
		}
		m.dirty[w] = 0
		for word != 0 {
			g := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			m.dirtyCount--
			start := g << DirtyGranuleShift
			end := start + DirtyGranule
			if end > len(snapshot) {
				end = len(snapshot)
			}
			if start < end {
				copied += copy(m.Data[start:end], snapshot[start:end])
			}
		}
	}
	return copied, false
}

// Table is a funcref table. Entries are 1-based function handles
// (funcIdx+1) so that zero means null, matching the value encoding.
//
// Handles resolve in the index space of the instance that OWNS the
// table: Funcs is installed at link time by the owning instance, so an
// instance that imports the table still calls the exporter's functions
// through call_indirect — the cross-instance linking contract.
type Table struct {
	Elems []uint64
	// Funcs resolves handles (Elems[i]-1 indexes Funcs). Set by the
	// engine when the owning instance links.
	Funcs []*FuncInst
	// MaxElems caps growth, mirroring Memory.MaxPages: the declared
	// maximum (or the index-space ceiling when none was declared). Link
	// checks compare it against an import's required maximum exactly as
	// the memory import check does.
	MaxElems uint32
}

// NewTable allocates a table from limits, capping MaxElems like
// NewMemory caps MaxPages.
func NewTable(lim wasm.Limits) *Table {
	maxElems := uint32(1<<32 - 1)
	if lim.HasMax && lim.Max < maxElems {
		maxElems = lim.Max
	}
	return &Table{Elems: make([]uint64, lim.Min), MaxElems: maxElems}
}

// GlobalSlot is a runtime global cell: bits plus tag for stack-walking
// parity. Instances hold globals by pointer so a global exported by one
// instance and imported by another is a single shared cell.
type GlobalSlot struct {
	Bits uint64
	Tag  wasm.Tag
}

// ExternGlobal pairs a global cell with its declared type and
// mutability, the metadata linkers need to type-check global imports
// (the cell's Tag alone cannot express mutability).
type ExternGlobal struct {
	Type    wasm.ValueType
	Mutable bool
	Cell    *GlobalSlot
}

// Extern is one external value of the embedding API: what a linker
// definition provides and what a module import consumes. Exactly the
// fields selected by Kind are meaningful.
type Extern struct {
	Kind wasm.ExternKind

	// FuncType types an ExternFunc definition. Exactly one of HostFunc
	// (a host-defined function, run in the importer's context) and Func
	// (another instance's function, bridged into its owner's context)
	// is set.
	FuncType wasm.FuncType
	HostFunc HostFunc
	Func     *FuncInst

	// Memory is the shared linear memory for ExternMemory.
	Memory *Memory

	// Table is the shared table for ExternTable.
	Table *Table

	// Global is the shared cell for ExternGlobal.
	Global ExternGlobal
}

// HostFunc is a host (imported) function. Arguments arrive in args;
// results must be written to results. Returning a non-nil error aborts
// execution with a host trap.
type HostFunc func(ctx *Context, args, results []uint64) error

// FuncInst is a resolved function: either a host function or a module
// function with its validation metadata and, once a compiler tier has
// run, its compiled code. Compiled is declared as any to keep rt free of
// a dependency on the machine package; executors type-assert it.
type FuncInst struct {
	Idx  uint32
	Type wasm.FuncType
	Name string

	// Host is non-nil for imported host functions.
	Host HostFunc

	// Decl and Info are set for module-defined functions.
	Decl *wasm.Func
	Info *validate.FuncInfo

	// Compiled machine code, if a compiler tier has translated this
	// function (holds a *mach.Code).
	Compiled any

	// CallCount drives tier-up heuristics.
	CallCount int

	// Probes is non-nil when instrumentation is attached.
	Probes *ProbeSet

	// Owner is the instance this function belongs to. A cross-instance
	// import places the exporter's *FuncInst directly in the importer's
	// function index space; the engine's dispatcher compares Owner
	// against the calling instance and bridges the call into the owner's
	// execution context when they differ.
	Owner *Instance
}

// IsHost reports whether f is a host function.
func (f *FuncInst) IsHost() bool { return f.Host != nil }

// Instance is an instantiated module.
//
// The ownership fields record which of the instance's externals were
// allocated by this instance and which were imported (and therefore
// belong to another instance or to the host). Imported externals occupy
// the low indices of their index spaces. State-reset machinery
// (engine.Instance.Reset, the instance pool) restores only owned state:
// an instance must never roll back memory, tables or globals it merely
// borrowed.
type Instance struct {
	Module  *wasm.Module
	Funcs   []*FuncInst
	Globals []*GlobalSlot
	Memory  *Memory
	Tables  []*Table

	// OwnsMemory is false when Memory was imported.
	OwnsMemory bool
	// ImportedGlobals and ImportedTables count imported entries at the
	// head of Globals and Tables.
	ImportedGlobals int
	ImportedTables  int

	// Ctx is the execution context the embedder bound to this instance,
	// the target context for calls bridged in from other instances.
	Ctx *Context

	// MemTouched records that some call since the last pool reset MAY
	// have written this instance's memory. The engine's call entry
	// points set it unless the static analysis proved the callee's whole
	// call tree read-only, letting a pooled reset skip the memory
	// restore entirely. Host writes outside a call (embedder pokes) must
	// go through Memory.MarkAll, which independently forces a restore.
	MemTouched bool
	// ProbedFuncs counts functions with probes attached. Probes run
	// arbitrary embedder code outside the analysis' view, so a probed
	// instance never skips its pooled memory restore.
	ProbedFuncs int

	// Poisoned marks an instance whose state can no longer be trusted:
	// a host function panicked mid-call, so linear memory, globals or
	// tables may be half-mutated. Reset paths refuse poisoned instances
	// and pools drop them instead of recycling them to the next request.
	Poisoned bool
}

// FuncByName resolves an exported function.
func (inst *Instance) FuncByName(name string) (*FuncInst, bool) {
	idx, ok := inst.Module.ExportedFunc(name)
	if !ok {
		return nil, false
	}
	return inst.Funcs[idx], true
}

// FrameKind distinguishes which tier owns an execution frame.
type FrameKind uint8

const (
	FrameInterp FrameKind = iota
	FrameJIT
)

// FrameInfo is the execution-frame record used for stack walking (GC
// root scans, stack traces, probe accessors). Interpreter frames and JIT
// frames have the same shape — the property that enables Wizard's cheap
// tier-up and tier-down.
type FrameInfo struct {
	Kind FrameKind
	Func *FuncInst
	// VFP is the value frame pointer: the stack index of local 0.
	VFP int
	// SP is the current operand-stack top (absolute slot index, one
	// past the last live slot). Executors keep it current at
	// observation points (calls, probes, traps).
	SP int
	// PC is the current bytecode offset, kept current at observation
	// points; JIT frames reconstruct it from the machine pc.
	PC int
}

// Status is the result of running an executor over one frame.
type Status uint8

const (
	// Done: the function returned normally; results are at VFP.
	Done Status = iota
	// OSRUp: the interpreter requests tier-up at a loop back-edge; the
	// frame is in canonical form (all values in the value stack) and
	// execution should continue in compiled code at FrameInfo.PC.
	OSRUp
	// Deopt: compiled code requests tier-down (e.g. instrumentation was
	// attached); the frame is canonical and execution should continue
	// in the interpreter at FrameInfo.PC.
	Deopt
)

// Context is one execution context (a "VM thread"): the value stack, the
// frame chain for stack walking, and the engine callback used to invoke
// functions across tiers.
type Context struct {
	Stack  *ValueStack
	Inst   *Instance
	Frames []FrameInfo

	// Depth guards against runaway recursion.
	Depth    int
	MaxDepth int

	// Invoke is installed by the engine: it runs callee (whose
	// arguments are already at argBase on the value stack) and leaves
	// the results at argBase. Executors use it for call, call_indirect
	// and host calls so that tier selection stays in one place.
	Invoke func(callee *FuncInst, argBase int) error

	// Heap is the host garbage-collected heap (a *heap.Heap); rt keeps
	// it abstract to avoid an import cycle.
	Heap any

	// Fuel, when non-zero, bounds execution deterministically: one unit
	// is charged per function entry and one per loop-header execution
	// (loop entry plus each taken back-edge), at identical program
	// points in every tier. When the budget runs out the executor
	// unwinds with TrapFuelExhausted. Zero disables metering.
	Fuel int64

	// GoCtx is the Go context of the current top-level call, installed
	// by engine.Instance.CallContext and bridged across cross-instance
	// calls. Host functions read it (GoContext) so cancellation and
	// deadlines cover time spent in the host, not just guest code.
	GoCtx context.Context

	// OSRThreshold is the loop back-edge count after which the
	// interpreter requests tier-up when compiled code exists (0 = off).
	OSRThreshold int

	// Interrupt, when non-nil, is the context's interruption flag.
	// Another goroutine arms it (engine.Instance.CallContext does so on
	// context cancellation or deadline); every executor polls it at
	// function entry and on the same branch as the OSR back-edge check,
	// and unwinds with TrapInterrupted when set. The flag is a pointer
	// so a cross-instance call bridge can temporarily point the callee
	// instance's context at the caller's flag, making cancellation
	// follow the call across instance boundaries.
	Interrupt *InterruptFlag

	// Resume carries the canonical frame state across an OSRUp or
	// Deopt return, so the engine can re-enter the other tier.
	Resume FrameInfo

	// Stats counts per-tier work when enabled.
	CountStats bool
	Stats      Stats
}

// Stats aggregates execution counters used by tests and the harness.
type Stats struct {
	InterpOps  uint64
	MachOps    uint64
	ProbeFires uint64
	OSRUps     uint64
	Deopts     uint64
}

// InterruptFlag is an atomic interruption request. It is safe to Set
// from any goroutine while an executor polls it.
//
// Calls can nest (guest → host → guest, possibly across instances that
// temporarily share one flag), and each nested call registers its own
// cancellation source. A finishing inner call must not erase a
// cancellation that belongs to a still-running outer call whose
// one-shot watcher already fired, so the flag tracks its in-flight
// sources and re-derives its state when one is removed — bookkeeping
// that lives on the flag itself precisely because the flag may be
// shared across instances.
type InterruptFlag struct {
	v atomic.Bool

	mu      sync.Mutex
	sources []*interruptSource
}

type interruptSource struct{ cancelled func() bool }

// Set arms the flag. It takes the source mutex so that a Set racing a
// source removal is ordered against the removal's re-derivation: either
// the Set lands after the derivation (flag stays armed), or the
// derivation runs after the Set — in which case the source's cancelled
// predicate already reports true (context.Context stores its error
// before closing Done) and the derivation re-arms. Without the lock a
// Set could slip between the scan and the Clear and be lost.
func (i *InterruptFlag) Set() {
	i.mu.Lock()
	i.v.Store(true)
	i.mu.Unlock()
}

// Clear disarms the flag.
func (i *InterruptFlag) Clear() {
	i.mu.Lock()
	i.v.Store(false)
	i.mu.Unlock()
}

// Get reports whether the flag is armed. Lock-free: this is the poll
// executors run on every loop back-edge.
func (i *InterruptFlag) Get() bool { return i.v.Load() }

// AddSource registers an in-flight cancellation source (a predicate
// reporting whether that source is cancelled) and returns its removal
// function. Removing a source re-derives the flag: it stays armed
// exactly when some remaining source is cancelled — so an inner call
// finishing cannot clear an enclosing call's cancellation, and a
// cancellation that raced completion cannot leak once every source is
// gone. The caller must stop its own Set-ter before calling remove.
func (i *InterruptFlag) AddSource(cancelled func() bool) (remove func()) {
	src := &interruptSource{cancelled: cancelled}
	i.mu.Lock()
	i.sources = append(i.sources, src)
	i.mu.Unlock()
	return func() {
		i.mu.Lock()
		defer i.mu.Unlock()
		for idx := len(i.sources) - 1; idx >= 0; idx-- {
			if i.sources[idx] == src {
				i.sources = append(i.sources[:idx], i.sources[idx+1:]...)
				break
			}
		}
		// Stores go through i.v directly: the mutex is already held,
		// which is what orders this derivation against concurrent Sets.
		for _, s := range i.sources {
			if s.cancelled() {
				i.v.Store(true)
				return
			}
		}
		i.v.Store(false)
	}
}

// Interrupted reports whether an interruption was requested. The nil
// check plus one atomic load keep it under the inlining budget, so
// executors pay a single predictable branch on the back-edge fast path.
func (ctx *Context) Interrupted() bool {
	return ctx.Interrupt != nil && ctx.Interrupt.Get()
}

// GoContext returns the Go context of the current top-level call, or
// context.Background() when the call was not context-bound. Host
// functions use it to honor cancellation and deadlines while the guest
// is parked in the host.
func (ctx *Context) GoContext() context.Context {
	if ctx.GoCtx != nil {
		return ctx.GoCtx
	}
	return context.Background()
}

// FuelCheckpoint charges one fuel unit at a checkpoint (function entry,
// loop entry, or a loop's back-edge). It returns false
// when the budget just ran out — the caller must unwind with
// TrapFuelExhausted. With metering off (Fuel == 0) it is a single
// predictable branch.
func (ctx *Context) FuelCheckpoint() bool {
	if ctx.Fuel > 0 {
		ctx.Fuel--
		return ctx.Fuel > 0
	}
	return true
}

// PushFrame records fi for stack walkers and returns its index.
func (ctx *Context) PushFrame(fi FrameInfo) int {
	ctx.Frames = append(ctx.Frames, fi)
	return len(ctx.Frames) - 1
}

// PopFrame removes the top frame record.
func (ctx *Context) PopFrame() {
	ctx.Frames = ctx.Frames[:len(ctx.Frames)-1]
}

// CheckStack verifies that a frame of slots slots at base fits the value
// stack (growing it if its cap allows) and the call depth, returning a
// stack-overflow trap otherwise. It must stay inlinable — every guest
// and host call runs it — which is why the limit is a precomputed field
// and the slow path takes two arguments; TestCheckStackInlines holds it.
func (ctx *Context) CheckStack(base, slots int, funcIdx uint32) error {
	if base+slots > ctx.Stack.limit || ctx.Depth >= ctx.MaxDepth {
		return ctx.growOrTrap(base+slots, funcIdx)
	}
	return nil
}

//go:noinline
func (ctx *Context) growOrTrap(need int, funcIdx uint32) error {
	if ctx.Depth >= ctx.MaxDepth || !ctx.Stack.grow(need) {
		return NewTrap(TrapStackOverflow, funcIdx, 0)
	}
	return nil
}
