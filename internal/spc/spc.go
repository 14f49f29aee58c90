// Package spc implements the single-pass ("baseline") compiler — the
// paper's core contribution. It translates Wasm bytecode to MachCode in
// one forward pass using the abstract-interpretation approach all
// production baseline compilers share (Section III): an abstract value
// stack mirrors the operand stack and locals, where each slot tracks
//
//   - which register (if any) caches its value,
//   - whether its memory home in the value stack is up to date,
//   - its constant value, if statically known, and
//   - whether its value tag in memory is up to date.
//
// From that state the compiler performs forward register allocation,
// constant and branch folding, immediate-mode instruction selection,
// redundant-spill avoidance, and compare/branch fusion — each gated by a
// Config flag so the paper's ablations (Figure 4) and tagging strategies
// (Figure 5) are directly reproducible.
//
// The pass is the validator's own walk (validate.Walk): each instruction
// is decoded and type-checked once, by the validator, and handed to the
// compiler with its immediates, so nothing here reads bytecode except
// the optimizing tier's local-use prescan (pin.go).
//
// Like Wizard-SPC, it does not scramble the frame: every local and
// operand slot has a fixed value-stack location shared with the
// interpreter, which is what makes tier-up/tier-down a frame rewrite and
// keeps instrumentation full-fidelity.
package spc

import (
	"sync"

	"wizgo/internal/mach"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// Config selects the compiler's feature set. The zero value is the
// weakest compiler (no constant tracking, single-register allocation,
// no tags, no stackmaps).
type Config struct {
	// TrackConsts models constants in abstract values (feature "K").
	TrackConsts bool
	// ConstFold evaluates pure ops on constants at compile time and
	// folds constant branches (feature "KF"; requires TrackConsts).
	ConstFold bool
	// ISel selects immediate-mode instructions when an operand is a
	// tracked constant (feature "ISEL"; requires TrackConsts).
	ISel bool
	// MultiReg lets one register cache several slots (feature "MR").
	MultiReg bool
	// Peephole fuses compares into branches (one-instruction lookahead).
	Peephole bool
	// Tags selects the value-tagging strategy (feature "TAG").
	Tags rt.TagMode
	// Stackmaps records per-callsite reference maps (feature "MAP").
	Stackmaps bool
	// OptProbes intrinsifies counter and top-of-stack probes
	// (Figure 6's "optjit"); otherwise probes call the runtime.
	OptProbes bool
	// NumRegs bounds the allocatable scratch registers (0 = default).
	NumRegs int
	// PinLocals pins up to this many hot locals into dedicated
	// registers for the whole function, surviving merges and calls
	// (callee-saved style) — the global register allocation a baseline
	// compiler cannot afford but the optimizing tier performs. Requires
	// a pre-pass over the body to rank locals by use count.
	PinLocals int
}

// Wizard returns the Wizard-SPC default configuration: everything on,
// on-demand tags, no stackmaps.
func Wizard() Config {
	return Config{
		TrackConsts: true, ConstFold: true, ISel: true, MultiReg: true,
		Peephole: true, Tags: rt.TagsOnDemand, OptProbes: true,
	}
}

// Compile validates and translates one function to MachCode in one
// walk: the validator's step decodes and checks each instruction, then
// the compiler translates it. info receives the validator's output; a
// recompile passes nil, because the FuncInfo it already holds is shared
// with every instance and must not be written, and the walk then
// validates into scratch. probes may be nil; when present, probe sites
// compile to direct calls (and intrinsics under cfg.OptProbes), the
// design of Section IV-D.
func Compile(m *wasm.Module, fidx uint32, decl *wasm.Func, info *validate.FuncInfo,
	probes *rt.ProbeSet, cfg Config) (*mach.Code, error) {

	if !cfg.TrackConsts {
		cfg.ConstFold = false
		cfg.ISel = false
	}
	if cfg.NumRegs <= 0 || cfg.NumRegs > mach.AllocatableRegs {
		cfg.NumRegs = mach.AllocatableRegs
	}
	w := validate.Walk(m, fidx, decl, info)
	defer w.Release()
	c := compilers.Get().(*compiler)
	defer c.recycle()
	c.m, c.fidx, c.decl, c.probes, c.cfg = m, fidx, decl, probes, cfg
	c.asm = mach.NewAsm()
	return c.compile(w)
}

// compilers recycles compiler scratch (abstract state, control stack,
// snapshot buffers) across functions, modules and worker goroutines.
var compilers = sync.Pool{New: func() any { return new(compiler) }}

// recycle empties c, keeping only its scratch buffers, and returns it to
// the pool. Snapshots of frames an error left open are simply dropped.
func (c *compiler) recycle() {
	clear(c.ctrls[:cap(c.ctrls)]) // popped frames still point at m's types
	*c = compiler{
		st:    state{avals: c.st.avals[:0]},
		ctrls: c.ctrls[:0],
		free:  c.free,
	}
	compilers.Put(c)
}
