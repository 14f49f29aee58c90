// Package engine is the public face of the virtual machine: it loads and
// validates modules, links imports, instantiates memories/tables/globals,
// selects and orchestrates execution tiers (interpreter, baseline
// compiler, optimizing compiler), and performs tier-up (OSR) and
// tier-down (deopt) by rewriting execution frames on the shared value
// stack — the integration story of the paper's Section IV.
//
// Module setup is a two-phase pipeline. Engine.Compile performs the
// per-module work once — decode, the module-level checks, then one
// worker-pool fan-out in which each function is validated and, in eager
// JIT modes, compiled in the same walk, then the writes-memory analysis —
// yielding a goroutine-safe CompiledModule. CompiledModule.Instantiate
// then only links imports, allocates memories/tables/globals and a value
// stack, and runs the start function, so one compiled artifact serves many
// concurrent instances. Engine.Instantiate composes the two for callers
// that load a module exactly once, and a codecache.Cache plugged into
// Config memoizes Compile across engines of the same configuration.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wizgo/internal/codecache"
	"wizgo/internal/faultinject"
	"wizgo/internal/interp"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// PointHostCall fires just before a host function runs, inside the
// panic-containment region, so an armed Fault{Err}, Fault{Panic} or
// Fault{Delay} exercises the host-error, host-panic-poisoning and
// slow-host paths respectively.
var PointHostCall = faultinject.Register("engine.host.call")

// Mode selects the execution strategy.
type Mode int

const (
	// ModeInterp runs everything in the in-place interpreter.
	ModeInterp Mode = iota
	// ModeJIT compiles every function at load time and never interprets.
	ModeJIT
	// ModeTiered starts in the interpreter and tiers up hot functions
	// (call-count threshold) and hot loops (OSR at back-edges).
	ModeTiered
)

func (m Mode) String() string {
	switch m {
	case ModeInterp:
		return "interp"
	case ModeJIT:
		return "jit"
	case ModeTiered:
		return "tiered"
	}
	return "mode?"
}

// Tier is a compiler that can translate functions for this engine. The
// single-pass compiler, the rewriting translator and the wazero analog
// are adapted as Tiers in internal/engines; copypatch.Tier and opt.Tier
// implement it in their own packages. Every Tier compiles by driving the
// validator's walk (validate.Walk), so it validates as it compiles.
type Tier interface {
	Name() string
	// Compile compiles a function whose body is already validated:
	// recompiles for probes and lazy first calls. info is the function's
	// FuncInfo, which instances share, so the walk must not write it.
	Compile(m *wasm.Module, fidx uint32, decl *wasm.Func, info *validate.FuncInfo,
		probes *rt.ProbeSet) (Code, error)
	// ValidateCompile is Engine.Compile's eager path: it receives the
	// function's FuncInfo still empty and validates the body into it in
	// the same walk that compiles it.
	ValidateCompile(m *wasm.Module, fidx uint32, decl *wasm.Func, info *validate.FuncInfo) (Code, error)
}

// Code is executable code produced by a Tier.
type Code interface {
	Run(ctx *rt.Context, f *rt.FuncInst, vfp int) (rt.Status, error)
	// Bytes reports the emitted code size for compile-throughput
	// accounting.
	Bytes() int
}

// OSRCode is implemented by code objects that support entering at a loop
// header with a canonical frame (tier-up) and invalidation (tier-down).
type OSRCode interface {
	Code
	OSREntry(wasmPC int) (int, bool)
	RunFrom(ctx *rt.Context, f *rt.FuncInst, vfp, machPC int) (rt.Status, error)
	Invalidate()
}

// Config describes an engine configuration ("tier preset").
type Config struct {
	Name string
	Mode Mode
	// Tier compiles functions in ModeJIT/ModeTiered.
	Tier Tier
	// LazyCompile defers compilation to first call (JSC-style laziness,
	// a confounder the paper discusses); default is eager compilation
	// at instantiation, which is what setup-time measurements assume.
	LazyCompile bool
	// OSRThreshold is the loop back-edge count before tier-up (ModeTiered).
	OSRThreshold int
	// CallThreshold is the call count before a function is compiled
	// (ModeTiered with LazyCompile).
	CallThreshold int
	// Tags allocates the value-tag array alongside the value stack.
	Tags bool
	// StackSlots caps the value stack (default 1<<20 slots): the depth
	// at which a call traps with stack overflow. It is a cap, not an
	// allocation — a stack starts at 4096 slots and doubles on demand.
	StackSlots int
	// MaxDepth bounds call nesting (default 10000).
	MaxDepth int
	// CompileWorkers bounds the worker pool Compile fans per-function
	// tier compilation out over (functions are independent compilation
	// units). 0 means GOMAXPROCS; 1 forces serial compilation, the
	// behavior the paper's single-threaded setup measurements assume.
	CompileWorkers int
	// Cache, when non-nil, memoizes Compile results by module content
	// hash and configuration fingerprint, so repeated loads of the same
	// module pay only the instantiation (link) cost.
	Cache *codecache.Cache
	// DiskCache, when non-nil, persists compiled artifacts below the
	// in-memory cache (which New creates on demand if Cache is nil): a
	// cold process whose cache directory is warm rehydrates compiled
	// modules from disk — verified, via mmap where available — without
	// running the compiler at all. Open one with OpenDiskCache.
	DiskCache *codecache.DiskStore
}

// Timings records per-phase setup costs for the compile-speed and
// SQ-space experiments (Figures 8–10).
type Timings struct {
	Decode time.Duration
	// Validate is the module-level checks only (validate.ModuleLevel).
	Validate time.Duration
	// Compile is the per-function fan-out: each body's validation and,
	// in eager JIT modes, its compilation, one walk per body.
	Compile time.Duration
	// Analyze is the writes-memory fixpoint (internal/analysis) over the
	// validator's per-function notes, after the fan-out. Zero when the
	// module rehydrated from disk (the read-only bits travel inside the
	// artifact).
	Analyze time.Duration
	// Rehydrate is the whole of a disk-cache load — decoding the module
	// and its module-level checks, then materializing the artifact's
	// sidetables and code sections — the pipeline work that replaces
	// Decode+Validate+Compile on the zero-compile path. Zero on a
	// freshly compiled module.
	Rehydrate time.Duration
	// CodeBytes is the total size of emitted machine code.
	CodeBytes int
	// ModuleBytes is the binary module size.
	ModuleBytes int
}

// Setup returns total per-module processing time before execution.
func (t Timings) Setup() time.Duration {
	return t.Decode + t.Validate + t.Analyze + t.Compile + t.Rehydrate
}

// Engine creates instances under one configuration. An Engine is safe
// for concurrent use once constructed: New snapshots the linker's
// definitions, so even a linker that keeps being mutated on another
// goroutine cannot race with Compile or Instantiate — the engine
// resolves imports against the frozen snapshot.
type Engine struct {
	cfg Config
	// externs is the frozen linker snapshot taken by New.
	externs map[externKey]rt.Extern
	// stacks recycles value stacks between instances. A new stack is
	// 36 KB (4096 slots and their tags; it grows on demand up to
	// cfg.StackSlots), a recycled one keeps whatever size it reached, so
	// a serving loop that Releases finished instances pays neither the
	// allocation nor the growth again. Reuse without zeroing is sound:
	// every executor zeroes and tags declared locals at frame entry,
	// operand slots are written before they are read (a validation
	// guarantee), and stack walkers only scan live frame ranges
	// [VFP, SP).
	stacks sync.Pool
	// compileCalls counts tier compiler invocations (per function, eager
	// and lazy alike). The cold-start acceptance check is built on it: a
	// warm disk cache must serve a cold process's first request with
	// this counter still at zero.
	compileCalls atomic.Uint64
	// fingerprint is cfg.Fingerprint(), precomputed at New when a cache
	// is configured so the reflective rendering stays off the Compile
	// fast path.
	fingerprint string
}

// New creates an engine. A nil linker provides no host imports.
func New(cfg Config, linker *Linker) *Engine {
	if cfg.StackSlots == 0 {
		cfg.StackSlots = 1 << 20
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 10000
	}
	if linker == nil {
		linker = NewLinker()
	}
	if cfg.DiskCache != nil {
		// The disk tier hangs below an in-memory cache; compile results
		// promote through it. A caller that supplied no memory tier
		// gets a private default one.
		if cfg.Cache == nil {
			cfg.Cache = codecache.New(codecache.Options{})
		}
		cfg.Cache.SetDisk(cfg.DiskCache)
	}
	e := &Engine{cfg: cfg, externs: linker.snapshot()}
	if cfg.Cache != nil {
		// The configuration fingerprint is reflective (%#v over the tier)
		// and costs tens of microseconds on its first rendering — real
		// money on the cold-start path, where the first Compile IS the
		// request. It is invariant for the engine's lifetime, so pay it
		// here, at construction time, not per request.
		e.fingerprint = cfg.Fingerprint()
	}
	e.stacks.New = func() any {
		return rt.NewValueStack(e.cfg.StackSlots, e.cfg.Tags)
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// CompileCalls returns how many times this engine invoked its tier
// compiler on a function — eager compiles, lazy compiles and probe
// recompiles alike. A process serving entirely from warm caches keeps
// it at zero.
func (e *Engine) CompileCalls() uint64 { return e.compileCalls.Load() }

// Instance is an instantiated module bound to an execution context.
type Instance struct {
	Engine  *Engine
	RT      *rt.Instance
	Ctx     *rt.Context
	Infos   []validate.FuncInfo
	Timings Timings

	// lazy is the module's shared compile-on-first-call table (nil
	// unless the configuration compiles lazily).
	lazy []lazyCode

	// released latches the first Release so a double release (including
	// a racing one) cannot push the same value stack into the engine's
	// pool twice — two later instantiations would then share a stack.
	released atomic.Bool
}

// Instantiate is the single-shot compatibility path: Compile followed
// by CompiledModule.Instantiate. Callers that load a module more than
// once should hold on to the CompiledModule (or configure a Cache) and
// instantiate from it, paying decode/validate/compile only once.
func (e *Engine) Instantiate(bytes []byte) (*Instance, error) {
	cm, err := e.Compile(bytes)
	if err != nil {
		return nil, err
	}
	return cm.Instantiate()
}

// resolveImport looks an import up in the engine's frozen linker
// snapshot and checks the extern kind.
func (e *Engine) resolveImport(imp wasm.Import) (rt.Extern, error) {
	ext, ok := e.externs[externKey{imp.Module, imp.Name}]
	if !ok {
		return rt.Extern{}, fmt.Errorf("engine: unresolved import %s.%s (%s)",
			imp.Module, imp.Name, imp.Kind)
	}
	if ext.Kind != imp.Kind {
		return rt.Extern{}, fmt.Errorf("engine: import %s.%s extern kind mismatch: import requires a %s, definition provides a %s",
			imp.Module, imp.Name, imp.Kind, ext.Kind)
	}
	return ext, nil
}

// link builds the runtime instance: resolve imports of all four extern
// kinds against the engine's frozen linker snapshot, then allocate the
// instance's own memory, globals and tables. Imported externals occupy
// the low indices of their index spaces and are aliased, never copied —
// an imported memory IS the exporter's memory.
func (e *Engine) link(m *wasm.Module, infos []validate.FuncInfo) (*Instance, error) {
	ri := &rt.Instance{Module: m}

	// Index spaces: imports first, in import-section order.
	for _, imp := range m.Imports {
		ext, err := e.resolveImport(imp)
		if err != nil {
			return nil, err
		}
		switch imp.Kind {
		case wasm.ImportFunc:
			ft := m.Types[imp.TypeIdx]
			if !ext.FuncType.Equal(ft) {
				return nil, fmt.Errorf("engine: import %s.%s signature mismatch: have %v, want %v",
					imp.Module, imp.Name, ext.FuncType, ft)
			}
			if ext.Func != nil {
				// Cross-instance import: share the exporter's resolved
				// function. Its Owner differs from ri, which makes the
				// invoke dispatcher bridge calls into the owner's context.
				ri.Funcs = append(ri.Funcs, ext.Func)
			} else {
				ri.Funcs = append(ri.Funcs, &rt.FuncInst{
					Idx: uint32(len(ri.Funcs)), Type: ft,
					Name: imp.Module + "." + imp.Name, Host: ext.HostFunc,
					Owner: ri,
				})
			}
		case wasm.ImportMemory:
			mem := ext.Memory
			if mem.Pages() < imp.Lim.Min {
				return nil, fmt.Errorf("engine: import %s.%s: memory has %d pages, import requires at least %d",
					imp.Module, imp.Name, mem.Pages(), imp.Lim.Min)
			}
			if imp.Lim.HasMax && mem.MaxPages > imp.Lim.Max {
				return nil, fmt.Errorf("engine: import %s.%s: memory may grow to %d pages, import caps it at %d",
					imp.Module, imp.Name, mem.MaxPages, imp.Lim.Max)
			}
			ri.Memory = mem
		case wasm.ImportTable:
			tbl := ext.Table
			if uint32(len(tbl.Elems)) < imp.Lim.Min {
				return nil, fmt.Errorf("engine: import %s.%s: table has %d elements, import requires at least %d",
					imp.Module, imp.Name, len(tbl.Elems), imp.Lim.Min)
			}
			if imp.Lim.HasMax && tbl.MaxElems > imp.Lim.Max {
				return nil, fmt.Errorf("engine: import %s.%s: table may grow to %d elements, import caps it at %d",
					imp.Module, imp.Name, tbl.MaxElems, imp.Lim.Max)
			}
			ri.Tables = append(ri.Tables, tbl)
			ri.ImportedTables++
		case wasm.ImportGlobal:
			g := ext.Global
			if g.Type != imp.GlobalType || g.Mutable != imp.Mutable {
				return nil, fmt.Errorf("engine: import %s.%s global type mismatch: have %s (mutable=%v), want %s (mutable=%v)",
					imp.Module, imp.Name, g.Type, g.Mutable, imp.GlobalType, imp.Mutable)
			}
			ri.Globals = append(ri.Globals, g.Cell)
			ri.ImportedGlobals++
		}
	}
	localIdx := 0
	for i := range m.Funcs {
		f := &m.Funcs[i]
		idx := uint32(len(ri.Funcs))
		ri.Funcs = append(ri.Funcs, &rt.FuncInst{
			Idx: idx, Type: m.Types[f.TypeIdx], Name: m.FuncName(idx),
			Decl: f, Info: &infos[localIdx], Owner: ri,
		})
		localIdx++
	}

	if ri.Memory == nil {
		if len(m.Memories) > 0 {
			ri.Memory = rt.NewMemory(m.Memories[0])
		} else {
			ri.Memory = &rt.Memory{} // zero-size memory simplifies executors
		}
		ri.OwnsMemory = true
	}
	for di, d := range m.Datas {
		if end := int(d.Offset) + len(d.Bytes); end > len(ri.Memory.Data) {
			return nil, fmt.Errorf("engine: data segment %d: [%#x, %#x) overflows %d-byte memory",
				di, d.Offset, end, len(ri.Memory.Data))
		}
		// Mark keeps an imported (possibly write-tracked) memory's dirty
		// accounting sound; it is a no-op on untracked memories.
		ri.Memory.Mark(d.Offset, 0, len(d.Bytes))
		copy(ri.Memory.Data[d.Offset:], d.Bytes)
	}

	for _, g := range m.Globals {
		ri.Globals = append(ri.Globals, &rt.GlobalSlot{
			Bits: g.Init.Bits, Tag: wasm.TagOf(g.Type),
		})
	}

	for _, t := range m.Tables {
		// Owned tables resolve their handles in this instance's function
		// index space; ri.Funcs is complete by now.
		tbl := rt.NewTable(t.Lim)
		tbl.Funcs = ri.Funcs
		ri.Tables = append(ri.Tables, tbl)
	}
	for ei, el := range m.Elems {
		if int(el.TableIdx) < ri.ImportedTables {
			// Handles are owner-relative, so a local segment's function
			// indices would dangle in the exporter's index space.
			return nil, fmt.Errorf("engine: element segment %d: cannot initialize imported table %d",
				ei, el.TableIdx)
		}
		tbl := ri.Tables[el.TableIdx]
		if end := int(el.Offset) + len(el.Funcs); end > len(tbl.Elems) {
			return nil, fmt.Errorf("engine: element segment %d: [%d, %d) overflows %d-element table %d",
				ei, el.Offset, end, len(tbl.Elems), el.TableIdx)
		}
		for i, fidx := range el.Funcs {
			tbl.Elems[int(el.Offset)+i] = uint64(fidx) + 1
		}
	}

	ctx := &rt.Context{
		Stack:        e.stacks.Get().(*rt.ValueStack),
		Inst:         ri,
		MaxDepth:     e.cfg.MaxDepth,
		OSRThreshold: e.cfg.OSRThreshold,
		Interrupt:    new(rt.InterruptFlag),
	}
	inst := &Instance{Engine: e, RT: ri, Ctx: ctx, Infos: infos}
	ctx.Invoke = inst.invoke
	ri.Ctx = ctx
	return inst, nil
}

// compileFunc installs compiled code for f. Unprobed code of a lazy
// configuration comes from the module's shared table, compiled there by
// whichever instance needed it first; a probed function, or one whose
// probes an eager configuration recompiles, compiles privately.
func (inst *Instance) compileFunc(f *rt.FuncInst) error {
	e := inst.Engine
	if inst.lazy != nil && f.Probes == nil {
		lc := &inst.lazy[int(f.Idx)-inst.RT.Module.NumImportedFuncs()]
		lc.once.Do(func() {
			e.compileCalls.Add(1)
			lc.code, lc.err = e.cfg.Tier.Compile(inst.RT.Module, f.Idx, f.Decl, f.Info, nil)
		})
		if lc.err != nil {
			return lc.err
		}
		f.Compiled = instanceCode(lc.code)
		return nil
	}
	e.compileCalls.Add(1)
	code, err := e.cfg.Tier.Compile(inst.RT.Module, f.Idx, f.Decl, f.Info, f.Probes)
	if err != nil {
		return err
	}
	f.Compiled = code
	return nil
}

// invoke is the cross-tier call dispatcher installed on the context.
// Arguments are at argBase on the value stack; results replace them.
func (inst *Instance) invoke(f *rt.FuncInst, argBase int) error {
	e := inst.Engine
	ctx := inst.Ctx

	// Function entry is the second interruption point (back-edges are
	// the first): a cancelled context unwinds before any new frame runs.
	if ctx.Interrupted() {
		return rt.NewTrap(rt.TrapInterrupted, f.Idx, 0)
	}

	// A function owned by another instance (a cross-instance import, or
	// an entry of an imported table) runs in its owner's execution
	// context, not ours. The bridged call charges its entry fuel in the
	// owner's dispatcher, so it is accounted exactly once.
	if f.Owner != nil && f.Owner != inst.RT {
		return crossInvoke(ctx, f, argBase)
	}

	// Function entry is also a fuel checkpoint: every call — guest or
	// host — costs one unit, so recursion without loops still exhausts
	// a budget deterministically in every tier.
	if ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
		return rt.NewTrap(rt.TrapFuelExhausted, f.Idx, 0)
	}

	if f.Host != nil {
		if err := ctx.CheckStack(argBase, len(f.Type.Params)+len(f.Type.Results), f.Idx); err != nil {
			return err
		}
		slots := ctx.Stack.Slots
		args := slots[argBase : argBase+len(f.Type.Params)]
		results := slots[argBase : argBase+len(f.Type.Results)]
		err := callHost(ctx, f, args, results)
		// Host functions can write linear memory through ctx without the
		// executors' Mark hooks seeing it; declare the memory dirty so a
		// pooled reset falls back to a full restore rather than leaking
		// host-written bytes across requests. Free when tracking is off.
		ctx.Inst.Memory.MarkAll()
		if err != nil {
			// A host function that already produced a trap (e.g. by
			// calling back into guest code) propagates it unchanged, so
			// kinds like TrapInterrupted stay observable at the top.
			var t *rt.Trap
			if errors.As(err, &t) {
				return err
			}
			return rt.NewTrapWrapped(rt.TrapHostError, f.Idx, 0, err)
		}
		if len(ctx.Stack.Slots) != len(slots) {
			// The host re-entered the guest and the stack grew under it:
			// results points into the array that was replaced.
			copy(ctx.Stack.Slots[argBase:], results)
		}
		if ctx.Stack.Tags != nil {
			for i, t := range f.Type.Results {
				ctx.Stack.Tags[argBase+i] = wasm.TagOf(t)
			}
		}
		return nil
	}

	// Lazy compilation / tier-up by call count.
	if f.Compiled == nil && e.cfg.Mode != ModeInterp && e.cfg.LazyCompile {
		f.CallCount++
		if e.cfg.Mode == ModeJIT || f.CallCount >= e.cfg.CallThreshold {
			if err := inst.compileFunc(f); err != nil {
				return err
			}
		}
	}

	var status rt.Status
	var err error
	if code, ok := f.Compiled.(Code); ok && e.cfg.Mode != ModeInterp {
		status, err = code.Run(ctx, f, argBase)
	} else {
		status, err = interp.Call(ctx, f, argBase)
	}

	// Tier transitions bounce the same frame between executors until it
	// completes — the frame itself never moves (Figure 2's design).
	for err == nil && status != rt.Done {
		switch status {
		case rt.OSRUp:
			if f.Compiled == nil {
				if cerr := inst.compileFunc(f); cerr != nil {
					return cerr
				}
			}
			osr, ok := f.Compiled.(OSRCode)
			if !ok {
				status, err = inst.resumeInterp(f, argBase)
				continue
			}
			machPC, found := osr.OSREntry(ctx.Resume.PC)
			if !found {
				status, err = inst.resumeInterp(f, argBase)
				continue
			}
			status, err = osr.RunFrom(ctx, f, argBase, machPC)
		case rt.Deopt:
			status, err = inst.resumeInterp(f, argBase)
		default:
			return fmt.Errorf("engine: unexpected executor status %d", status)
		}
	}
	return err
}

// callHost runs a host function inside a panic-containment region: a
// panic anywhere below it — the host function itself, or an injected
// fault — is converted into a counted TrapHostPanic instead of
// unwinding through the embedder, and the instance is marked poisoned.
// A poisoned instance may hold arbitrary partial state (the panic
// interrupted the host mid-write), so Reset refuses it and pools drop
// it rather than recycle it; the current call still unwinds cleanly
// because every executor releases its frame bookkeeping via defer.
func callHost(ctx *rt.Context, f *rt.FuncInst, args, results []uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ctx.Inst.Poisoned = true
			err = rt.NewTrapWrapped(rt.TrapHostPanic, f.Idx, 0,
				fmt.Errorf("host function %s panicked: %v", f.Name, r))
		}
	}()
	ctx.Depth++
	defer func() { ctx.Depth-- }()
	if ferr := faultinject.Fire(PointHostCall); ferr != nil {
		return ferr
	}
	return f.Host(ctx, args, results)
}

// mayWriteMemory reports whether a call to f could modify ri's linear
// memory: true unless the static analysis proved f's entire call tree
// read-only. Host functions, probed instances, and functions without a
// FuncInfo (unanalyzed imports) are conservatively writers.
func mayWriteMemory(ri *rt.Instance, f *rt.FuncInst) bool {
	if ri.ProbedFuncs > 0 || f.Host != nil || f.Info == nil {
		return true
	}
	return !f.Info.ReadOnly
}

// crossInvoke bridges a call to a function owned by another instance:
// arguments move from the caller's value stack to the owner's, the call
// runs through the owner's own invoke dispatcher (its memory, globals,
// tables, tier configuration and tiering state), and results move back.
// The caller's interrupt flag is installed on the owner's context for
// the duration, so cancellation follows the call across the instance
// boundary — a deadline on A's CallContext interrupts a loop running in
// B. Cross-instance calls are synchronous and single-threaded, like all
// execution on an instance.
func crossInvoke(src *rt.Context, f *rt.FuncInst, argBase int) error {
	dst := f.Owner.Ctx
	if dst == nil {
		return fmt.Errorf("engine: function %s: owning instance has no execution context", f.Name)
	}
	if dst.Stack == nil {
		// The exporting instance's value stack was Released; error out
		// instead of letting CheckStack dereference a nil stack.
		return fmt.Errorf("engine: function %s: owning instance's value stack was released", f.Name)
	}
	np, nr := len(f.Type.Params), len(f.Type.Results)
	base := 0
	if n := len(dst.Frames); n > 0 {
		// Re-entrant cross call (the owner called out and the callee
		// called back in): frame SPs are synced at call sites, so the
		// top frame's SP is the first free slot on the owner's stack.
		base = dst.Frames[n-1].SP
	}
	if err := dst.CheckStack(base, np+nr, f.Idx); err != nil {
		return err
	}
	copy(dst.Stack.Slots[base:base+np], src.Stack.Slots[argBase:argBase+np])
	if dst.Stack.Tags != nil {
		for i, t := range f.Type.Params {
			dst.Stack.Tags[base+i] = wasm.TagOf(t)
		}
	}
	if mayWriteMemory(f.Owner, f) {
		f.Owner.MemTouched = true
	}
	saved := dst.Interrupt
	dst.Interrupt = src.Interrupt
	// The fuel budget and Go context travel with the call the same way
	// the interrupt flag does: the callee burns the caller's budget, and
	// whatever remains flows back so the caller's accounting stays exact.
	savedFuel, savedGo := dst.Fuel, dst.GoCtx
	dst.Fuel, dst.GoCtx = src.Fuel, src.GoCtx
	// Deferred so a panicking host function deeper in the call cannot
	// leave the callee instance permanently polling the caller's flag.
	defer func() {
		src.Fuel = dst.Fuel
		dst.Fuel, dst.GoCtx = savedFuel, savedGo
		dst.Interrupt = saved
	}()
	if err := dst.Invoke(f, base); err != nil {
		return err
	}
	copy(src.Stack.Slots[argBase:argBase+nr], dst.Stack.Slots[base:base+nr])
	if src.Stack.Tags != nil {
		for i, t := range f.Type.Results {
			src.Stack.Tags[argBase+i] = wasm.TagOf(t)
		}
	}
	return nil
}

// resumeInterp continues a canonical frame in the interpreter,
// reconstructing IP and STP — the tier-down path.
func (inst *Instance) resumeInterp(f *rt.FuncInst, vfp int) (rt.Status, error) {
	pc := inst.Ctx.Resume.PC
	entry := interp.Entry{
		PC:  pc,
		STP: f.Info.STPForPC(pc),
		SP:  inst.Ctx.Resume.SP,
	}
	return interp.Run(inst.Ctx, f, vfp, entry)
}

// Release returns the instance's value stack to the engine's pool so a
// future instantiation can reuse it, at the size it grew to, without
// re-allocating. The instance must be quiescent (no call in progress)
// and must not be used again afterwards. Calling Release is optional —
// an instance that is simply dropped is collected normally.
func (inst *Instance) Release() {
	// The latch must win before the stack is even read: concurrent
	// releases may otherwise both observe a non-nil stack and pool it
	// twice. Only the CAS winner touches Ctx.Stack.
	if inst.Ctx == nil || !inst.released.CompareAndSwap(false, true) {
		return
	}
	if inst.Ctx.Stack == nil {
		return
	}
	inst.Engine.stacks.Put(inst.Ctx.Stack)
	inst.Ctx.Stack = nil
}

// Call invokes an exported function with typed arguments.
func (inst *Instance) Call(name string, args ...wasm.Value) ([]wasm.Value, error) {
	return inst.CallContext(context.Background(), name, args...)
}

// CallContext invokes an exported function with typed arguments under a
// context: cancellation or deadline expiry arms the instance's atomic
// interrupt flag, which every executor polls at function entry and loop
// back-edges, so a runaway guest unwinds with a TrapInterrupted (whose
// cause is goctx's error) within one loop iteration instead of hanging
// the goroutine.
func (inst *Instance) CallContext(goctx context.Context, name string, args ...wasm.Value) ([]wasm.Value, error) {
	return inst.CallWith(goctx, CallOpts{}, name, args...)
}

// CallOpts are per-call resource limits.
type CallOpts struct {
	// Fuel bounds the call's checkpoint executions: one unit per
	// function entry (guest and host alike) and one per loop-header
	// arrival, identically in every tier. 0 means unlimited. Exhaustion
	// unwinds with a deterministic rt.TrapFuelExhausted at the same
	// checkpoint in every configuration; any residual budget is
	// discarded when the call returns.
	Fuel int64
}

// CallWith is CallContext with per-call resource limits.
func (inst *Instance) CallWith(goctx context.Context, opts CallOpts, name string, args ...wasm.Value) ([]wasm.Value, error) {
	f, ok := inst.RT.FuncByName(name)
	if !ok {
		return nil, fmt.Errorf("engine: no exported function %q", name)
	}
	return inst.CallFuncWith(goctx, opts, f, args...)
}

// CallFunc invokes a resolved function with typed arguments.
func (inst *Instance) CallFunc(f *rt.FuncInst, args ...wasm.Value) ([]wasm.Value, error) {
	return inst.CallFuncContext(context.Background(), f, args...)
}

// CallFuncContext invokes a resolved function with typed arguments
// under a context; see CallContext for the cancellation contract.
func (inst *Instance) CallFuncContext(goctx context.Context, f *rt.FuncInst, args ...wasm.Value) ([]wasm.Value, error) {
	return inst.CallFuncWith(goctx, CallOpts{}, f, args...)
}

// CallFuncWith invokes a resolved function under a context and per-call
// resource limits; see CallContext and CallOpts. The context is also
// made visible to host functions for the duration of the call via
// rt.Context.GoContext, so hosts can respect deadlines on their own
// blocking work.
func (inst *Instance) CallFuncWith(goctx context.Context, opts CallOpts, f *rt.FuncInst, args ...wasm.Value) ([]wasm.Value, error) {
	if err := goctx.Err(); err != nil {
		return nil, err
	}
	ctx := inst.Ctx
	// Save/restore rather than set/clear: a re-entrant call (guest →
	// host → guest on the same instance) must not erase the outer
	// call's context or budget when it finishes.
	savedGo := ctx.GoCtx
	ctx.GoCtx = goctx
	defer func() { ctx.GoCtx = savedGo }()
	if opts.Fuel > 0 {
		savedFuel := ctx.Fuel
		ctx.Fuel = opts.Fuel
		defer func() { ctx.Fuel = savedFuel }()
	}
	stop := inst.armInterrupt(goctx)
	// stop is idempotent; the defer covers a panic unwinding out of the
	// guest (which would otherwise leak the watcher and its source).
	defer stop()
	results, err := inst.callFunc(f, args...)
	fired := stop()
	if err != nil && fired {
		// Attach the context's error as the trap cause so callers can
		// errors.Is(err, context.DeadlineExceeded / Canceled).
		var trap *rt.Trap
		if errors.As(err, &trap) && trap.Kind == rt.TrapInterrupted && trap.Wrapped == nil {
			trap.Wrapped = goctx.Err()
		}
	}
	return results, err
}

// armInterrupt starts a watcher that arms the context's interrupt flag
// when goctx is cancelled, registering goctx as a cancellation source
// on the flag itself (the flag may be temporarily shared across
// instances by crossInvoke, so the bookkeeping must travel with it).
// The returned stop function shuts the watcher down, removes the
// source — which re-derives the flag, so a finishing inner call cannot
// erase an enclosing call's cancellation and a cancellation that raced
// completion cannot leak into the next call — and reports whether this
// call's own watcher fired. When goctx can never be cancelled there is
// no watcher and no overhead.
//
// Deliberately NOT context.AfterFunc: its stop() can return false while
// the callback is still mid-flight, so a straggling Set could land
// after the source removal's re-derivation and leak a stale interrupt
// into the next call. The channel handshake joins the watcher first.
func (inst *Instance) armInterrupt(goctx context.Context) (stop func() bool) {
	done := goctx.Done()
	if done == nil {
		return func() bool { return false }
	}
	flag := inst.Ctx.Interrupt
	removeSource := flag.AddSource(func() bool { return goctx.Err() != nil })
	quit := make(chan struct{})
	fired := make(chan bool, 1)
	go func() {
		select {
		case <-done:
			flag.Set()
			fired <- true
		case <-quit:
			fired <- false
		}
	}()
	var once sync.Once
	var f bool
	return func() bool {
		once.Do(func() {
			close(quit)
			f = <-fired
			removeSource()
		})
		return f
	}
}

// callFunc is the uninstrumented call path: marshal arguments, invoke,
// marshal results. The frame is based at the instance's current stack
// top — 0 for an ordinary entry call, above the live frames for a
// re-entrant call (guest → host → guest on the same instance), which
// would otherwise overwrite the outer call's locals at slot 0.
func (inst *Instance) callFunc(f *rt.FuncInst, args ...wasm.Value) ([]wasm.Value, error) {
	if len(args) != len(f.Type.Params) {
		return nil, fmt.Errorf("engine: %s expects %d args, got %d", f.Name, len(f.Type.Params), len(args))
	}
	ctx := inst.Ctx
	base := 0
	// Only top-level entries feed the execute histogram: a re-entrant
	// call (guest → host → guest) is already inside a measured request,
	// and counting it would double-book its time.
	topLevel := len(ctx.Frames) == 0
	if n := len(ctx.Frames); n > 0 {
		// Frame SPs are synced before every outgoing call, so the top
		// frame's SP is the first free slot.
		base = ctx.Frames[n-1].SP
	}
	if err := ctx.CheckStack(base, len(f.Type.Params)+len(f.Type.Results), f.Idx); err != nil {
		return nil, err
	}
	for i, a := range args {
		if a.Type != f.Type.Params[i] {
			return nil, fmt.Errorf("engine: %s arg %d: have %v, want %v", f.Name, i, a.Type, f.Type.Params[i])
		}
		ctx.Stack.Slots[base+i] = a.Bits
		if ctx.Stack.Tags != nil {
			ctx.Stack.Tags[base+i] = wasm.TagOf(a.Type)
		}
	}
	if mayWriteMemory(inst.RT, f) {
		inst.RT.MemTouched = true
	}
	var t0 time.Time
	if topLevel {
		t0 = time.Now()
	}
	if err := inst.invoke(f, base); err != nil {
		if topLevel {
			noteExecute(f.Name, t0, err)
		}
		return nil, err
	}
	if topLevel {
		noteExecute(f.Name, t0, nil)
	}
	results := make([]wasm.Value, len(f.Type.Results))
	for i, t := range f.Type.Results {
		results[i] = wasm.Value{Type: t, Bits: ctx.Stack.Slots[base+i]}
	}
	return results, nil
}

// CallIdx invokes function index idx with no arguments.
func (inst *Instance) CallIdx(idx uint32) error {
	f := inst.RT.Funcs[idx]
	if len(f.Type.Params) != 0 {
		return fmt.Errorf("engine: function %d takes parameters", idx)
	}
	if mayWriteMemory(inst.RT, f) {
		inst.RT.MemTouched = true
	}
	return inst.invoke(f, 0)
}
