package engines

import (
	"wizgo/internal/copypatch"
	"wizgo/internal/engine"
	"wizgo/internal/opt"
	"wizgo/internal/rewriter"
	"wizgo/internal/rt"
	"wizgo/internal/spc"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// RewriterTier adapts the rewriting-interpreter translator as a tier.
type RewriterTier struct{ TierName string }

// Name implements engine.Tier.
func (t RewriterTier) Name() string { return t.TierName }

// Compile implements engine.Tier.
func (t RewriterTier) Compile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo, probes *rt.ProbeSet) (engine.Code, error) {
	return rewriter.Translate(m, fidx, decl, info)
}

// IRTier models wazero's pipeline: build an intermediate representation
// of the whole function first (a real extra pass with real allocations),
// then generate code from templates with plain single-register
// allocation and no constant tracking — feature set "R" in Figure 3.
// The two-pass structure is why wazero is the slowest baseline compiler
// in Figure 8.
type IRTier struct{ TierName string }

// Name implements engine.Tier.
func (t IRTier) Name() string { return t.TierName }

// Compile implements engine.Tier. info is shared, so the code
// generation walk validates into scratch.
func (t IRTier) Compile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo, probes *rt.ProbeSet) (engine.Code, error) {
	// Pass 1: IR construction (pre-decoded operator list).
	if _, err := rewriter.Translate(m, fidx, decl, info); err != nil {
		return nil, err
	}
	// Pass 2: code generation over the decoded function.
	return copypatch.Compile(m, fidx, decl, nil)
}

// ValidateCompile implements engine.FusedTier. The IR pass reads the
// sidetable, so here code generation runs first and validates into info;
// each body is validated once, as on every other tier.
func (t IRTier) ValidateCompile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo) (engine.Code, error) {
	code, err := copypatch.Compile(m, fidx, decl, info)
	if err != nil {
		return nil, err
	}
	if _, err := rewriter.Translate(m, fidx, decl, info); err != nil {
		return nil, err
	}
	return code, nil
}

// FeatureRow is one line of Figure 3's design-comparison table.
type FeatureRow struct {
	Name     string
	Language string
	Year     int
	Features string
	Desc     string
}

// Figure3 returns the design table of the six baseline compilers.
func Figure3() []FeatureRow {
	return []FeatureRow{
		{"wizeng-spc", "Go (Virgil in the paper)", 2023, "MR K KF ISEL TAG MV", "this repo's single-pass compiler with value tags"},
		{"wazero", "Go", 2022, "R", "IR-building pipeline, no constant tracking"},
		{"wasm-now", "C++ (Copy&Patch)", 2022, "MR K ISEL", "template (copy-and-patch) code generation"},
		{"wasmer-base", "Rust", 2020, "R K MV", "singlepass: constants, single-register allocation"},
		{"v8-liftoff", "C++", 2018, "MR K ISEL MAP MV", "multi-register, stackmaps, fused validation"},
		{"sm-base", "C++", 2018, "MR K ISEL MAP MV", "multi-register, stackmaps, leanest bookkeeping"},
	}
}

// baselineSPC builds an spc-based baseline preset.
func baselineSPC(name string, cfg spc.Config, tags bool) engine.Config {
	return engine.Config{
		Name: name, Mode: engine.ModeJIT, Tags: tags,
		Tier: SPCTier{TierName: name, Cfg: cfg},
	}
}

// LiftoffLike is the V8 Liftoff analog: MR K ISEL MAP MV, no
// constant-folding, stackmaps for GC.
func LiftoffLike() engine.Config {
	return baselineSPC("v8-liftoff", spc.Config{
		TrackConsts: true, ISel: true, MultiReg: true, Peephole: true,
		Tags: rt.TagsNone, Stackmaps: true,
	}, false)
}

// SMBaseLike is the SpiderMonkey baseline analog: same feature row as
// Liftoff with slightly fewer scratch registers reserved.
func SMBaseLike() engine.Config {
	return baselineSPC("sm-base", spc.Config{
		TrackConsts: true, ISel: true, MultiReg: true, Peephole: true,
		Tags: rt.TagsNone, Stackmaps: true, NumRegs: 10,
	}, false)
}

// WasmerBaseLike is the wasmer --singlepass analog: R K MV — constants
// tracked but single-register allocation, no instruction selection.
func WasmerBaseLike() engine.Config {
	return baselineSPC("wasmer-base", spc.Config{
		TrackConsts: true, Tags: rt.TagsNone,
	}, false)
}

// WazeroLike is the wazero analog: IR pipeline, feature set R.
func WazeroLike() engine.Config {
	return engine.Config{
		Name: "wazero", Mode: engine.ModeJIT,
		Tier: IRTier{TierName: "wazero"},
	}
}

// WasmNowLike is the WasmNow / Copy&Patch analog: template compilation.
func WasmNowLike() engine.Config {
	return engine.Config{
		Name: "wasm-now", Mode: engine.ModeJIT,
		Tier: copypatch.Tier{TierName: "wasm-now"},
	}
}

// BaselineShootout returns the six baseline-compiler presets of
// Figures 3, 7, 8 and 9, wizard first.
func BaselineShootout() []engine.Config {
	return []engine.Config{
		WizardSPC(), WazeroLike(), WasmNowLike(),
		WasmerBaseLike(), LiftoffLike(), SMBaseLike(),
	}
}

// Interpreter tiers for Figure 10.

// Wasm3Like is the wasm3 analog: an eager rewriting interpreter. (The
// real wasm3 skips bytecode verification; this repo always validates, a
// noted deviation.)
func Wasm3Like() engine.Config {
	return engine.Config{
		Name: "wasm3", Mode: engine.ModeJIT,
		Tier: RewriterTier{TierName: "wasm3"},
	}
}

// IWasmIntLike is the WAMR "fast interpreter" analog: also a rewriting
// interpreter.
func IWasmIntLike() engine.Config {
	return engine.Config{
		Name: "iwasm-int", Mode: engine.ModeJIT,
		Tier: RewriterTier{TierName: "iwasm-int"},
	}
}

// JSCIntLike is the JavaScriptCore LLInt analog: a rewriting interpreter
// with lazy per-function translation — the laziness confounder the
// paper's Figure 10 discussion calls out.
func JSCIntLike() engine.Config {
	return engine.Config{
		Name: "jsc-int", Mode: engine.ModeJIT, LazyCompile: true,
		Tier: RewriterTier{TierName: "jsc-int"},
	}
}

// Optimizing tiers for Figure 10.

func optPreset(name string, passes, pins int, lazy bool) engine.Config {
	return engine.Config{
		Name: name, Mode: engine.ModeJIT, LazyCompile: lazy,
		Tier: opt.Tier{TierName: name, Cfg: opt.Config{PinLocals: pins, Passes: passes}},
	}
}

// TurboFanLike models V8's optimizing Wasm tier.
func TurboFanLike() engine.Config { return optPreset("v8-turbofan", 3, 16, false) }

// SMIonLike models SpiderMonkey's optimizing Wasm tier.
func SMIonLike() engine.Config { return optPreset("sm-ion", 3, 16, false) }

// CraneliftWasmtimeLike models wasmtime's Cranelift tier.
func CraneliftWasmtimeLike() engine.Config { return optPreset("wasmtime", 2, 16, false) }

// CraneliftWasmerLike models wasmer's Cranelift tier.
func CraneliftWasmerLike() engine.Config { return optPreset("wasmer", 2, 16, false) }

// WAVMLike models the LLVM-based, primarily ahead-of-time wavm: the
// heaviest pipeline and the slowest setup in Figure 10.
func WAVMLike() engine.Config { return optPreset("wavm", 8, 16, false) }

// JSCBBQLike models JavaScriptCore's BBQ (less optimizing, lazy) tier.
func JSCBBQLike() engine.Config { return optPreset("jsc-bbq", 1, 12, true) }

// JSCOMGLike models JavaScriptCore's OMG (more optimizing, lazy) tier.
func JSCOMGLike() engine.Config { return optPreset("jsc-omg", 4, 16, true) }

// IWasmFJITLike models WAMR's fast JIT: a thin optimizing pass.
func IWasmFJITLike() engine.Config { return optPreset("iwasm-fjit", 0, 8, false) }

// SQSpaceTiers returns all 18 execution tiers of Figure 10, grouped:
// interpreters, baseline compilers, optimizing compilers.
func SQSpaceTiers() []engine.Config {
	return []engine.Config{
		// Interpreters (4).
		WizardINT(), Wasm3Like(), IWasmIntLike(), JSCIntLike(),
		// Baseline compilers (6).
		WizardSPC(), WazeroLike(), WasmNowLike(), WasmerBaseLike(),
		LiftoffLike(), SMBaseLike(),
		// Optimizing compilers (8).
		TurboFanLike(), SMIonLike(), CraneliftWasmtimeLike(),
		CraneliftWasmerLike(), WAVMLike(), JSCBBQLike(), JSCOMGLike(),
		IWasmFJITLike(),
	}
}

// TierClass labels a preset for SQ-space plotting.
func TierClass(name string) string {
	switch name {
	case "wizeng-int", "wasm3", "iwasm-int", "jsc-int":
		return "interpreter"
	case "wizeng-spc", "wazero", "wasm-now", "wasmer-base", "v8-liftoff", "sm-base":
		return "baseline"
	default:
		return "optimizing"
	}
}
