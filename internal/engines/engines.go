// Package engines provides the engine presets used throughout the
// evaluation: the Wizard configurations (interpreter and Wizard-SPC with
// every ablation of Figures 4 and 5), the five comparator baseline
// compilers of Figure 3 with their feature sets and structurally
// different compile pipelines, and the interpreter/optimizing tiers that
// fill out the 18-engine SQ-space of Figure 10.
package engines

import (
	"wizgo/internal/engine"
	"wizgo/internal/rt"
	"wizgo/internal/spc"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// SPCTier adapts the single-pass compiler as an engine tier.
type SPCTier struct {
	TierName string
	Cfg      spc.Config
}

// Name implements engine.Tier.
func (t SPCTier) Name() string { return t.TierName }

// Compile implements engine.Tier. info is shared, so the walk validates
// into scratch.
func (t SPCTier) Compile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo, probes *rt.ProbeSet) (engine.Code, error) {
	return spc.Compile(m, fidx, decl, nil, probes, t.Cfg)
}

// ValidateCompile implements engine.Tier.
func (t SPCTier) ValidateCompile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo) (engine.Code, error) {
	return spc.Compile(m, fidx, decl, info, nil, t.Cfg)
}

// Catalog returns one representative configuration per executor family
// — the in-place interpreter, the single-pass compiler (machine-code
// executor), the rewriting interpreter, and the tiered pipeline that
// transitions between them. Cross-cutting engine behavior (linking,
// import resolution, interruption) is tested across exactly this set,
// because each family has its own execution loop and therefore its own
// copy of every cross-cutting check.
func Catalog() []engine.Config {
	return []engine.Config{
		WizardINT(),
		WizardSPC(),
		Wasm3Like(),
		WizardTiered(50),
	}
}

// DifferentialMatrix returns the full cross-execution test matrix: the
// Catalog plus the copy-and-patch and optimizing pipelines, so every
// executor the repository benchmark reports an exec_ms figure for is
// also cross-checked. This is the engine set the differential-testing
// oracle (internal/difftest) runs every generated module through.
func DifferentialMatrix() []engine.Config {
	return append(Catalog(), WasmNowLike(), TurboFanLike())
}

// FullMatrix returns every configuration a figure is drawn from: the
// five Figure 4 ablations, the six Figure 5 tag modes, the 18 SQ-space
// tiers and the tiered pipeline with an OSR threshold low enough to tier
// up mid-loop — 30 in all. The oracle runs the workload suites through
// this set (wizgo-fuzz -suite), so every number wizgo-bench prints comes
// from a configuration that was checked to compute the same thing.
func FullMatrix() []engine.Config {
	var cfgs []engine.Config
	cfgs = append(cfgs, Figure4Variants()...)
	cfgs = append(cfgs, Figure5Variants()...)
	cfgs = append(cfgs, SQSpaceTiers()...)
	return append(cfgs, WizardTiered(8))
}

// ByName resolves a preset by its figure name: any of the 18 SQ-space
// tiers plus "wizeng-tiered". Shared by cmd/wizgo, the serving example,
// and tests.
func ByName(name string) (engine.Config, bool) {
	if name == "wizeng-tiered" {
		return WizardTiered(100), true
	}
	for _, p := range presets {
		if p.cfg.Name == name {
			return p.cfg, true
		}
	}
	return engine.Config{}, false
}

// WizardINT is the in-place interpreter configuration (Wizard-INT).
func WizardINT() engine.Config {
	return engine.Config{Name: "wizeng-int", Mode: engine.ModeInterp, Tags: true}
}

// WizardSPC is the default Wizard-SPC configuration: all optimizations,
// on-demand tags.
func WizardSPC() engine.Config {
	return engine.Config{
		Name: "wizeng-spc", Mode: engine.ModeJIT, Tags: true,
		Tier: SPCTier{TierName: "wizard-spc", Cfg: spc.Wizard()},
	}
}

// WizardTiered is the production-style configuration: start in the
// interpreter, tier up hot loops via OSR.
func WizardTiered(osrThreshold int) engine.Config {
	return engine.Config{
		Name: "wizeng-tiered", Mode: engine.ModeTiered, Tags: true,
		Tier:          SPCTier{TierName: "wizard-spc", Cfg: spc.Wizard()},
		LazyCompile:   true,
		CallThreshold: 2,
		OSRThreshold:  osrThreshold,
	}
}

// SPCVariant returns Wizard-SPC with a modified compiler config, used by
// the Figure 4 and Figure 5 ablations.
func SPCVariant(name string, mutate func(*spc.Config)) engine.Config {
	cfg := spc.Wizard()
	mutate(&cfg)
	return engine.Config{
		Name: name, Mode: engine.ModeJIT, Tags: cfg.Tags != rt.TagsNone,
		Tier: SPCTier{TierName: name, Cfg: cfg},
	}
}

// Figure4Variants returns the optimization-ablation configurations of
// Figure 4, in the paper's order.
func Figure4Variants() []engine.Config {
	return []engine.Config{
		SPCVariant("allopt", func(c *spc.Config) {}),
		SPCVariant("nok", func(c *spc.Config) { c.TrackConsts = false }),
		SPCVariant("nokfold", func(c *spc.Config) { c.ConstFold = false }),
		SPCVariant("noisel", func(c *spc.Config) { c.ISel = false }),
		SPCVariant("nomr", func(c *spc.Config) { c.MultiReg = false }),
	}
}

// Figure5Variants returns the value-tag configurations of Figure 5 plus
// the notags baseline.
func Figure5Variants() []engine.Config {
	tag := func(name string, mode rt.TagMode) engine.Config {
		return SPCVariant(name, func(c *spc.Config) { c.Tags = mode })
	}
	return []engine.Config{
		tag("notags", rt.TagsNone),
		tag("eagertags", rt.TagsEager),
		tag("eagertags-o", rt.TagsEagerOperands),
		tag("eagertags-l", rt.TagsEagerLocals),
		tag("on-demand", rt.TagsOnDemand),
		tag("lazytags", rt.TagsLazy),
	}
}
