package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wizgo/internal/analysis"
	"wizgo/internal/codecache"
	"wizgo/internal/telemetry"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// CompiledModule is the product of Engine.Compile: the decoded module,
// its validation metadata, and the compiled code of every local function
// — all of it up front in eager JIT modes, on first call under lazy
// compilation. It is safe to share between goroutines and to instantiate
// any number of times — the compile-once / instantiate-many split that
// lets a serving deployment amortize the per-module setup cost the
// paper's Figure 8 measures. Mutable per-instance state (memories,
// globals, tables, value stacks, probe sets) lives on the Instance; the
// only mutable field of compiled code, the invalidation flag, is copied
// per instance when an instance installs the code (see
// mach.Code.InstanceView).
//
// Compilation always runs without probes: instrumentation is a
// per-instance concern, so Instance.AttachProbe recompiles the affected
// function privately and never touches the shared artifact.
type CompiledModule struct {
	engine *Engine

	// Module is the decoded module. Read-only after Compile.
	Module *wasm.Module
	// Infos is the per-local-function validation metadata. Read-only.
	Infos []validate.FuncInfo
	// Codes holds compiled code per local function (index-aligned with
	// Module.Funcs). Nil in interpreter mode and under lazy compilation,
	// where lazy holds the code instead.
	Codes []Code
	// lazy is the compile-on-first-call table of a lazy configuration,
	// one entry per local function shared by every instance, so a
	// function compiles once per module however many instances call it.
	lazy []lazyCode
	// Timings records the one-time setup cost: decode, validate, and
	// the wall-clock time of the (possibly parallel) compile phase.
	Timings Timings
	// Analysis summarizes the static-analysis facts baked into Infos:
	// how many functions are proven read-only. On a disk-cache load the
	// stats are recomputed from the deserialized bits, so warm and cold
	// processes report the same numbers.
	Analysis analysis.Stats
}

// AnalysisStats returns the static-analysis summary for this module.
func (cm *CompiledModule) AnalysisStats() analysis.Stats { return cm.Analysis }

// Engine returns the engine this module was compiled under.
func (cm *CompiledModule) Engine() *Engine { return cm.engine }

// Fingerprint returns the cache identity of a configuration: everything
// that changes the emitted code must appear here, so two presets never
// share a cached artifact. The tier is rendered with %#v so its
// concrete type and every compilation flag it carries (e.g. an SPC
// feature set) participate, guarding ad-hoc configurations that reuse a
// preset name with different flags.
func (cfg Config) Fingerprint() string {
	tier := "none"
	if cfg.Tier != nil {
		tier = fmt.Sprintf("%s %#v", cfg.Tier.Name(), cfg.Tier)
	}
	return fmt.Sprintf("%s|%s|%s|lazy=%v|tags=%v",
		cfg.Name, cfg.Mode, tier, cfg.LazyCompile, cfg.Tags)
}

// Compile decodes, validates, and (in eager JIT modes) compiles every
// function of a module exactly once, returning a reusable artifact.
// When the engine is configured with a code cache, the artifact is
// memoized by content hash and configuration fingerprint, and concurrent
// compiles of the same module collapse into one. With a disk cache
// attached, a memory miss first tries to rehydrate a persisted artifact
// (the module is decoded and its module-level checks run as in a
// compile, but each function's validation and compilation is read from
// the artifact), and a fresh compile is written through for the next
// cold start.
func (e *Engine) Compile(bytes []byte) (*CompiledModule, error) {
	if e.cfg.Cache == nil {
		return e.compile(bytes)
	}
	key := codecache.KeyFor(bytes, e.fingerprint)
	v, err := e.cfg.Cache.GetOrAddTiered(key, codecache.TierOps{
		Build: func() (any, error) { return e.compile(bytes) },
		Encode: func(v any) ([]byte, error) {
			return encodeArtifact(v.(*CompiledModule))
		},
		Decode: func(payload []byte) (any, error) {
			return e.decodeArtifact(bytes, payload)
		},
	})
	if err != nil {
		return nil, err
	}
	cm := v.(*CompiledModule)
	if cm.engine != e {
		// A different engine (same configuration) compiled this
		// artifact. Re-bind so Instantiate links against our linker.
		bound := *cm
		bound.engine = e
		return &bound, nil
	}
	return cm, nil
}

// compile is the uncached compile pipeline: decode, the module-level
// checks, one fan-out that validates (and in eager modes compiles) each
// function, then the analysis over the validator's per-function notes.
func (e *Engine) compile(bytes []byte) (*CompiledModule, error) {
	t0 := time.Now()
	m, err := wasm.Decode(bytes)
	if err != nil {
		return nil, err
	}
	tDecode := time.Since(t0)

	t1 := time.Now()
	if err := validate.ModuleLevel(m); err != nil {
		return nil, err
	}
	tValidate := time.Since(t1)

	t2 := time.Now()
	infos := make([]validate.FuncInfo, len(m.Funcs))
	codes, err := e.compileAll(m, infos)
	if err != nil {
		return nil, err
	}
	cm := &CompiledModule{
		engine: e, Module: m, Infos: infos, Codes: codes,
		lazy: e.lazyTable(len(m.Funcs)),
		Timings: Timings{
			Decode: tDecode, Validate: tValidate, Compile: time.Since(t2),
			ModuleBytes: len(bytes),
		},
	}
	for _, c := range codes {
		cm.Timings.CodeBytes += c.Bytes()
	}

	ta := time.Now()
	cm.Analysis = analysis.Module(m, infos)
	cm.Timings.Analyze = time.Since(ta)
	noteAnalysis(cm.Analysis, cm.Timings.Analyze)

	hCompile.Observe(time.Since(t0))
	if tr := telemetry.DefaultTracer(); tr.Enabled() {
		tr.Record(telemetry.StageCompile, e.cfg.Name, t0, time.Since(t0), "")
	}
	return cm, nil
}

// compileAll validates every local function into infos and, in eager
// JIT modes, compiles it, returning the code (nil when nothing is
// compiled eagerly). Each function is one unit of work and one walk:
// Tier.ValidateCompile when eager, validate.Function otherwise.
// Functions are independent units (the property Copy-and-Patch and Druid
// exploit), so the work fans out over a bounded worker pool sized by
// Config.CompileWorkers. Compilation sees no probe sets — those are
// per-instance — which is what makes the fan-out safe.
func (e *Engine) compileAll(m *wasm.Module, infos []validate.FuncInfo) ([]Code, error) {
	n := len(m.Funcs)
	imported := m.NumImportedFuncs()
	eager := e.cfg.Mode != ModeInterp && !e.cfg.LazyCompile
	codes := make([]Code, n)

	compileOne := func(i int) (Code, error) {
		fidx, decl, info := uint32(imported+i), &m.Funcs[i], &infos[i]
		if !eager {
			return nil, validate.Function(m, fidx, decl, info)
		}
		e.compileCalls.Add(1)
		mCompileCalls.Inc()
		return e.cfg.Tier.ValidateCompile(m, fidx, decl, info)
	}

	workers := e.cfg.CompileWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			code, err := compileOne(i)
			if err != nil {
				return nil, err
			}
			codes[i] = code
		}
	} else {
		var (
			next    atomic.Int64
			mu      sync.Mutex
			firstI  = n
			firstEr error
			wg      sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					code, err := compileOne(i)
					if err != nil {
						// Every claimed index is compiled even after a
						// failure (errors are rare and compilation is
						// cheap), so the surviving error is always the
						// lowest-index one — exactly what serial
						// compilation reports.
						mu.Lock()
						if i < firstI {
							firstI, firstEr = i, err
						}
						mu.Unlock()
						continue
					}
					codes[i] = code
				}
			}()
		}
		wg.Wait()
		if firstEr != nil {
			return nil, firstEr
		}
	}
	if !eager {
		return nil, nil
	}
	return codes, nil
}

// Instantiate links a fresh instance of the compiled module: resolve
// imports, allocate memory/tables/globals and a value stack, install
// per-instance views of the shared code, and run the start function.
// This is the only per-instance cost — the artifact itself is never
// touched, so any number of goroutines may instantiate concurrently.
func (cm *CompiledModule) Instantiate() (*Instance, error) {
	t0 := time.Now()
	inst, err := cm.engine.link(cm.Module, cm.Infos)
	if err != nil {
		return nil, err
	}
	hLink.Observe(time.Since(t0))
	if tr := telemetry.DefaultTracer(); tr.Enabled() {
		tr.Record(telemetry.StageLink, cm.engine.cfg.Name, t0, time.Since(t0), "")
	}
	inst.Timings = cm.Timings
	inst.lazy = cm.lazy

	if cm.Codes != nil {
		imported := cm.Module.NumImportedFuncs()
		for i, code := range cm.Codes {
			if code == nil {
				continue
			}
			inst.RT.Funcs[imported+i].Compiled = instanceCode(code)
		}
	}

	if cm.Module.HasStart {
		if err := inst.CallIdx(cm.Module.Start); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// lazyCode is one function's entry in a module's compile-on-first-call
// table: the first instance to need the code compiles it, instances
// calling it meanwhile wait for that compile, and later ones find it
// done.
type lazyCode struct {
	once sync.Once
	code Code
	err  error
}

// lazyTable returns an empty compile-on-first-call table for n local
// functions, or nil unless the configuration compiles lazily.
func (e *Engine) lazyTable(n int) []lazyCode {
	if e.cfg.Mode == ModeInterp || !e.cfg.LazyCompile {
		return nil
	}
	return make([]lazyCode, n)
}

// instanceViewer is implemented by code objects that carry mutable
// execution state (today: the invalidation flag) and can produce a
// per-instance view of themselves. Code types that are immutable after
// compilation are shared between instances directly.
type instanceViewer interface{ InstanceView() any }

func instanceCode(code Code) any {
	if v, ok := code.(instanceViewer); ok {
		return v.InstanceView()
	}
	return code
}
