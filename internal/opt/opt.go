// Package opt implements the optimizing compiler tier used by the
// "red and purple" engines of Figure 10 (TurboFan-, Cranelift-,
// JSC-BBQ/OMG- and LLVM-style configurations). It is deliberately a
// multi-pass pipeline — the structural property that separates
// optimizing tiers from baselines in the paper's SQ-space:
//
//  1. an analysis pre-pass ranks locals by use count (inside
//     internal/spc) and pins the hottest ones into dedicated registers
//     for the whole function, callee-saved style — global register
//     allocation, the single biggest code-quality lever over a
//     single-pass baseline, which must dump state at every merge;
//  2. code generation (sharing the abstract-interpretation back end);
//  3. one or more local-value-numbering passes over the emitted machine
//     code that delete redundant slot loads, redundant spills, and
//     re-materialized constants, with full branch-target remapping.
//
// Each pass costs real compile time, so opt tiers land where the paper
// puts them: ~2-3x faster code at an order of magnitude slower setup.
package opt

import (
	"wizgo/internal/engine"
	"wizgo/internal/mach"
	"wizgo/internal/rt"
	"wizgo/internal/spc"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// Config selects the pipeline weight.
type Config struct {
	// PinLocals is the number of locals pinned to dedicated registers.
	PinLocals int
	// Passes is how many LVN clean-up passes run (heavier tiers run
	// more, modeling longer optimization pipelines).
	Passes int
	// Stackmaps emits call-site reference maps (Web-engine style).
	Stackmaps bool
}

// Default returns the standard optimizing configuration.
func Default() Config { return Config{PinLocals: 16, Passes: 1} }

// Compile runs the full pipeline on one function. Like spc.Compile, it
// validates into info, or into scratch when info is nil.
func Compile(m *wasm.Module, fidx uint32, decl *wasm.Func, info *validate.FuncInfo,
	probes *rt.ProbeSet, cfg Config) (*mach.Code, error) {

	scfg := spc.Config{
		TrackConsts: true, ConstFold: true, ISel: true, MultiReg: true,
		Peephole: true, Tags: rt.TagsNone, Stackmaps: cfg.Stackmaps,
		PinLocals: cfg.PinLocals,
	}
	code, err := spc.Compile(m, fidx, decl, info, probes, scfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Passes; i++ {
		code = LVN(code)
	}
	return code, nil
}

// Tier adapts the optimizing compiler for the engine.
type Tier struct {
	TierName string
	Cfg      Config
}

// Name implements engine.Tier.
func (t Tier) Name() string { return t.TierName }

// Compile implements engine.Tier. info is shared, so the walk validates
// into scratch.
func (t Tier) Compile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo, probes *rt.ProbeSet) (engine.Code, error) {
	return Compile(m, fidx, decl, nil, probes, t.Cfg)
}

// ValidateCompile implements engine.Tier.
func (t Tier) ValidateCompile(m *wasm.Module, fidx uint32, decl *wasm.Func,
	info *validate.FuncInfo) (engine.Code, error) {
	return Compile(m, fidx, decl, info, nil, t.Cfg)
}
