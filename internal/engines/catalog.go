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

// Compile implements engine.Tier. info is shared, so the walk validates
// into scratch.
func (t RewriterTier) Compile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo, probes *rt.ProbeSet) (engine.Code, error) {
	return rewriter.Translate(m, fidx, decl, nil)
}

// ValidateCompile implements engine.Tier.
func (t RewriterTier) ValidateCompile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo) (engine.Code, error) {
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

// Compile implements engine.Tier. info is shared, so both passes
// validate into scratch.
func (t IRTier) Compile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo, probes *rt.ProbeSet) (engine.Code, error) {
	return t.ValidateCompile(m, fidx, decl, nil)
}

// ValidateCompile implements engine.Tier. Each pass is a walk of its
// own; the code generation walk validates into info, the IR pass into
// scratch.
func (t IRTier) ValidateCompile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo) (engine.Code, error) {
	// Pass 1: IR construction (pre-decoded operator list).
	if _, err := rewriter.Translate(m, fidx, decl, nil); err != nil {
		return nil, err
	}
	// Pass 2: code generation over the decoded function.
	return copypatch.Compile(m, fidx, decl, info)
}

// FeatureRow is one line of Figure 3's design-comparison table.
type FeatureRow struct {
	Name     string
	Language string
	Year     int
	Features string
	Desc     string
}

// Tier classes of Figure 10.
const (
	interpreter = "interpreter"
	baseline    = "baseline"
	optimizing  = "optimizing"
)

// preset is one execution tier of Figure 10: its class, its
// configuration and, for the six baseline compilers, its Figure 3 row
// (Name left to the configuration's).
type preset struct {
	class string
	cfg   engine.Config
	fig3  *FeatureRow
}

// presets are the 18 execution tiers of Figure 10, grouped:
// interpreters, baseline compilers, optimizing compilers. SQSpaceTiers,
// BaselineShootout, Figure3, TierClass and ByName all read this table.
var presets = []preset{
	{interpreter, WizardINT(), nil},
	{interpreter, Wasm3Like(), nil},
	// The WAMR "fast interpreter" analog: also a rewriting interpreter.
	{interpreter, rewriting("iwasm-int", false), nil},
	// The JavaScriptCore LLInt analog: a rewriting interpreter with lazy
	// per-function translation — the laziness confounder the paper's
	// Figure 10 discussion calls out.
	{interpreter, rewriting("jsc-int", true), nil},

	{baseline, WizardSPC(), &FeatureRow{Language: "Go (Virgil in the paper)", Year: 2023,
		Features: "MR K KF ISEL TAG MV", Desc: "this repo's single-pass compiler with value tags"}},
	{baseline, WazeroLike(), &FeatureRow{Language: "Go", Year: 2022,
		Features: "R", Desc: "IR-building pipeline, no constant tracking"}},
	{baseline, WasmNowLike(), &FeatureRow{Language: "C++ (Copy&Patch)", Year: 2022,
		Features: "MR K ISEL", Desc: "template (copy-and-patch) code generation"}},
	// The wasmer --singlepass analog: constants tracked but
	// single-register allocation, no instruction selection.
	{baseline, baselineSPC("wasmer-base", spc.Config{TrackConsts: true, Tags: rt.TagsNone}),
		&FeatureRow{Language: "Rust", Year: 2020,
			Features: "R K MV", Desc: "singlepass: constants, single-register allocation"}},
	{baseline, LiftoffLike(), &FeatureRow{Language: "C++", Year: 2018,
		Features: "MR K ISEL MAP MV", Desc: "multi-register, stackmaps, fused validation"}},
	// The SpiderMonkey baseline analog: Liftoff's feature row with fewer
	// scratch registers reserved.
	{baseline, baselineSPC("sm-base", spc.Config{
		TrackConsts: true, ISel: true, MultiReg: true, Peephole: true,
		Tags: rt.TagsNone, Stackmaps: true, NumRegs: 10,
	}), &FeatureRow{Language: "C++", Year: 2018,
		Features: "MR K ISEL MAP MV", Desc: "multi-register, stackmaps, leanest bookkeeping"}},

	{optimizing, TurboFanLike(), nil},
	// SpiderMonkey's optimizing Wasm tier.
	{optimizing, optPreset("sm-ion", 3, 16, false), nil},
	// wasmtime's Cranelift tier.
	{optimizing, optPreset("wasmtime", 2, 16, false), nil},
	// wasmer's Cranelift tier.
	{optimizing, optPreset("wasmer", 2, 16, false), nil},
	{optimizing, WAVMLike(), nil},
	{optimizing, JSCBBQLike(), nil},
	// JavaScriptCore's OMG (more optimizing, lazy) tier.
	{optimizing, optPreset("jsc-omg", 4, 16, true), nil},
	{optimizing, IWasmFJITLike(), nil},
}

// SQSpaceTiers returns all 18 execution tiers of Figure 10, grouped:
// interpreters, baseline compilers, optimizing compilers.
func SQSpaceTiers() []engine.Config { return configs("") }

// BaselineShootout returns the six baseline-compiler presets of
// Figures 3, 7, 8 and 9, wizard first.
func BaselineShootout() []engine.Config { return configs(baseline) }

// configs returns the configurations of class, or of every preset.
func configs(class string) []engine.Config {
	var cfgs []engine.Config
	for _, p := range presets {
		if class == "" || p.class == class {
			cfgs = append(cfgs, p.cfg)
		}
	}
	return cfgs
}

// Figure3 returns the design table of the six baseline compilers.
func Figure3() []FeatureRow {
	var rows []FeatureRow
	for _, p := range presets {
		if p.fig3 != nil {
			r := *p.fig3
			r.Name = p.cfg.Name
			rows = append(rows, r)
		}
	}
	return rows
}

// TierClass labels one of the 18 SQ-space tiers for plotting:
// "interpreter", "baseline" or "optimizing"; "" for any other name.
func TierClass(name string) string {
	for _, p := range presets {
		if p.cfg.Name == name {
			return p.class
		}
	}
	return ""
}

// baselineSPC builds an spc-based baseline preset.
func baselineSPC(name string, cfg spc.Config) engine.Config {
	return engine.Config{
		Name: name, Mode: engine.ModeJIT,
		Tier: SPCTier{TierName: name, Cfg: cfg},
	}
}

// LiftoffLike is the V8 Liftoff analog: MR K ISEL MAP MV, no
// constant-folding, stackmaps for GC.
func LiftoffLike() engine.Config {
	return baselineSPC("v8-liftoff", spc.Config{
		TrackConsts: true, ISel: true, MultiReg: true, Peephole: true,
		Tags: rt.TagsNone, Stackmaps: true,
	})
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

// rewriting builds a rewriting-interpreter preset.
func rewriting(name string, lazy bool) engine.Config {
	return engine.Config{
		Name: name, Mode: engine.ModeJIT, LazyCompile: lazy,
		Tier: RewriterTier{TierName: name},
	}
}

// Wasm3Like is the wasm3 analog: an eager rewriting interpreter. (The
// real wasm3 skips bytecode verification; this repo always validates, a
// noted deviation.)
func Wasm3Like() engine.Config { return rewriting("wasm3", false) }

// optPreset builds an optimizing-tier preset.
func optPreset(name string, passes, pins int, lazy bool) engine.Config {
	return engine.Config{
		Name: name, Mode: engine.ModeJIT, LazyCompile: lazy,
		Tier: opt.Tier{TierName: name, Cfg: opt.Config{PinLocals: pins, Passes: passes}},
	}
}

// TurboFanLike models V8's optimizing Wasm tier.
func TurboFanLike() engine.Config { return optPreset("v8-turbofan", 3, 16, false) }

// WAVMLike models the LLVM-based, primarily ahead-of-time wavm: the
// heaviest pipeline and the slowest setup in Figure 10.
func WAVMLike() engine.Config { return optPreset("wavm", 8, 16, false) }

// JSCBBQLike models JavaScriptCore's BBQ (less optimizing, lazy) tier.
func JSCBBQLike() engine.Config { return optPreset("jsc-bbq", 1, 12, true) }

// IWasmFJITLike models WAMR's fast JIT: a thin optimizing pass.
func IWasmFJITLike() engine.Config { return optPreset("iwasm-fjit", 0, 8, false) }
