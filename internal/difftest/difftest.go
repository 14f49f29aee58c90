// Package difftest is the differential testing engine for the
// execution tiers: a structure-aware module generator (gen.go), a
// cross-execution oracle that runs each module through every
// configuration of a matrix (engines.DifferentialMatrix() unless the
// caller picks another), and an automatic minimizer (minimize.go) that
// shrinks any diverging module into a checked-in reproducer (corpus.go).
// The workload suites are a second module source (suite.go), run under
// a stricter contract because what they compute is known.
//
// The repo's unique asset is several executors — in-place interpreter,
// rewriting interpreter, single-pass compiler, the tiered pipeline that
// transitions between them, the copy-and-patch compiler and the
// optimizing pipeline — for one Wasm semantics. Any observable
// difference between two configurations, between a fresh instance and
// the same instance after a pooled reset, or between freshly compiled
// code and the same code loaded back from a disk-cache artifact, is a
// bug by construction,
// which makes random differential testing the highest-leverage
// correctness tool the repo has: no hand-written expectations, just
// agreement.
//
// An execution's observable behavior is canonicalized into an Outcome:
// per-call results (with NaN payloads canonicalized, since Wasm permits
// any NaN bit pattern) or trap kind, plus the final linear memory hash
// and final global values. Runs that hit the safety-net deadline
// (TrapInterrupted) are timing-dependent and excluded from comparison;
// for a suite module, which is known to terminate, they are a failure.
package difftest

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"wizgo/internal/codecache"
	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// Call is one export invocation of the oracle's workload: every
// generated module carries the calls that exercise it, and reproducers
// persist them alongside the module bytes.
type Call struct {
	Export string       `json:"export"`
	Args   []wasm.Value `json:"-"`
}

// Generated is a module plus the calls that exercise it — the unit the
// oracle executes and the minimizer shrinks.
type Generated struct {
	Seed  int64
	Bytes []byte
	Calls []Call
}

// CallOutcome is the canonical observable result of one export call.
type CallOutcome struct {
	Export  string
	Trapped bool
	Trap    rt.TrapKind
	// Results holds canonicalized result bits (NaNs normalized to the
	// canonical quiet NaN of their type). Empty when the call trapped.
	Results []uint64
	// Err records a non-trap harness error (unknown export, argument
	// mismatch); such errors come from shared pre-execution code and
	// must also agree across configurations.
	Err string
}

// Outcome is everything a run of one module under one engine
// configuration can observe: whether setup rejected the module (and in
// which phase), each call's result or trap, and the final instance
// state.
type Outcome struct {
	// Rejected is true when the module never reached execution;
	// RejectPhase says which phase refused it ("compile" covers
	// decode/validate/tier-compile, "instantiate" covers link + start).
	Rejected    bool
	RejectPhase string
	RejectErr   string

	Calls []CallOutcome

	// MemPages/MemHash digest the final linear memory; Globals holds
	// the final value bits of every global (canonicalized).
	MemPages uint32
	MemHash  uint64
	Globals  []uint64

	// Interrupted is true when any call hit TrapInterrupted: the run
	// crossed the oracle deadline, so the outcome is timing-dependent
	// and incomparable.
	Interrupted bool
}

// EngineOutcome pairs an outcome with the configuration that produced it.
type EngineOutcome struct {
	Config  string
	Outcome Outcome
}

// Divergence describes the first observable difference between two
// configurations' outcomes for one module.
type Divergence struct {
	Seed     int64
	ConfigA  string
	ConfigB  string
	Detail   string
	Outcomes []EngineOutcome
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("difftest: divergence (seed %d): %s vs %s: %s",
		d.Seed, d.ConfigA, d.ConfigB, d.Detail)
}

// canonNaN32/canonNaN64 are the canonical quiet NaN bit patterns the
// oracle normalizes every NaN to before comparing: Wasm leaves NaN
// payloads nondeterministic, so bitwise-distinct NaNs are not a
// divergence.
const (
	canonNaN32 = uint64(0x7fc00000)
	canonNaN64 = uint64(0x7ff8000000000000)
)

// canonBits canonicalizes one value's bits for comparison.
func canonBits(t wasm.ValueType, bits uint64) uint64 {
	switch t {
	case wasm.F32:
		if f := math.Float32frombits(uint32(bits)); f != f {
			return canonNaN32
		}
	case wasm.F64:
		if f := math.Float64frombits(bits); f != f {
			return canonNaN64
		}
	}
	return bits
}

// Oracle owns one engine per matrix configuration and cross-executes
// modules through all of them. Engines are reused across modules so
// value stacks recycle through the per-engine pools; an Oracle is not
// goroutine-safe.
type Oracle struct {
	cfgs    []engine.Config
	engines []*engine.Engine
	// Deadline bounds each export call; generated modules terminate by
	// construction, so this is a safety net, and runs that hit it are
	// excluded from comparison as timing-dependent.
	Deadline time.Duration
	// Fuel, when positive, runs every export call under that per-call
	// fuel budget. Fuel charging is deterministic (one unit per function
	// entry and loop-header arrival, identically in every tier), so a
	// budget small enough to trip mid-run must produce TrapFuelExhausted
	// in ALL configurations or none — a disagreement is a real
	// divergence, exactly like a bounds-check disagreement.
	Fuel int64
}

// NewOracle builds the oracle over engines.DifferentialMatrix(), the
// matrix generated modules are fuzzed through.
func NewOracle() *Oracle { return NewOracleFor(engines.DifferentialMatrix()) }

// NewOracleFor builds the oracle over any configuration matrix; outs[0]
// of a Run belongs to cfgs[0], which every other configuration is
// compared against. The value-stack cap is lowered from the engine
// default. Stacks grow on demand, so this saves no memory; it only
// bounds how long a generated module that recurses without end runs
// before every configuration traps, at the same depth, with stack
// overflow.
func NewOracleFor(cfgs []engine.Config) *Oracle {
	o := &Oracle{Deadline: 2 * time.Second}
	for _, cfg := range cfgs {
		cfg.StackSlots = 1 << 16
		o.cfgs = append(o.cfgs, cfg)
		o.engines = append(o.engines, engine.New(cfg, nil))
	}
	return o
}

// Configs returns the matrix configuration names, in execution order.
func (o *Oracle) Configs() []string {
	names := make([]string, len(o.cfgs))
	for i, c := range o.cfgs {
		names[i] = c.Name
	}
	return names
}

// Run executes g under every matrix configuration and compares the
// canonical outcomes, after each configuration has agreed with itself
// across a reset and across a disk-cache round trip (see execute). A nil
// Divergence means all of it agreed (or some run crossed the deadline,
// making the module incomparable).
func (o *Oracle) Run(g Generated) ([]EngineOutcome, *Divergence) {
	outs, d, _ := o.run(g)
	return outs, d
}

// run is Run, additionally naming the configuration whose run crossed
// the deadline (the case Run reports as agreement and RunSuite as a
// failure); outs then ends with that configuration's row.
func (o *Oracle) run(g Generated) (outs []EngineOutcome, d *Divergence, interrupted string) {
	outs = make([]EngineOutcome, 0, len(o.engines)+1)
	for i := range o.engines {
		out, again, leg, detail := o.execute(i, g)
		outs = append(outs, EngineOutcome{Config: o.cfgs[i].Name, Outcome: out})
		if out.Interrupted || again.Interrupted {
			return outs, nil, o.cfgs[i].Name
		}
		if detail != "" {
			other := o.cfgs[i].Name + " " + leg
			outs = append(outs, EngineOutcome{Config: other, Outcome: again})
			return outs, &Divergence{Seed: g.Seed, ConfigA: o.cfgs[i].Name, ConfigB: other, Detail: detail, Outcomes: outs}, ""
		}
	}
	if d := Compare(outs); d != nil {
		d.Seed = g.Seed
		d.Outcomes = outs
		return outs, d, ""
	}
	return outs, nil, ""
}

// Diverges reports whether g still diverges — the minimizer's predicate.
func (o *Oracle) Diverges(g Generated) bool {
	_, d := o.Run(g)
	return d != nil
}

// The two legs execute crosses besides the fresh run; they name the
// second side of a Divergence ("<cfg> after reset", "<cfg> from disk").
const (
	legReset = "after reset"
	legDisk  = "from disk"
)

// execute runs one module under configuration i and captures its
// canonical outcome, then crosses the two other paths a served module
// takes. Reset leg: the instance is reset to its post-instantiation
// snapshot the way a pool does and the calls run again; the reset must
// restore the post-instantiation state, and the rerun's outcome must
// equal the first. This is the differential check on the writes-memory
// analysis: Reset skips the memory restore when every call was proven
// read-only, so a function wrongly proven read-only leaks its writes
// past the reset. Disk leg: see fromDisk. again is the outcome of the
// leg that disagreed (or of the last one run) and detail describes the
// first violation.
func (o *Oracle) execute(i int, g Generated) (out, again Outcome, leg, detail string) {
	cm, err := o.engines[i].Compile(g.Bytes)
	if err != nil {
		out.Rejected, out.RejectPhase, out.RejectErr = true, "compile", err.Error()
		return out, out, "", ""
	}
	inst, err := cm.Instantiate()
	if err != nil {
		out.Rejected, out.RejectPhase, out.RejectErr = true, "instantiate", err.Error()
		return out, out, "", ""
	}
	defer inst.Release()

	// Set up the way engine.InstancePool does for a fresh instance.
	snap := inst.Snapshot()
	if inst.RT.OwnsMemory {
		inst.RT.Memory.EnableWriteTracking()
	}
	var fresh, restored Outcome
	fresh.captureState(inst.RT)

	out = o.runCalls(inst, g.Calls)
	if out.Interrupted {
		return out, out, "", ""
	}
	if err := inst.Reset(snap); err != nil {
		return out, out, legReset, "reset: " + err.Error()
	}
	restored.captureState(inst.RT)
	if d := diffOutcome(fresh, restored); d != "" {
		return out, restored, legReset, "reset did not restore the post-instantiation state: " + d
	}
	again = o.runCalls(inst, g.Calls)
	if again.Interrupted {
		return out, again, "", ""
	}
	if d := diffOutcome(out, again); d != "" {
		return out, again, legReset, d
	}

	again, detail = o.fromDisk(o.cfgs[i], g)
	if detail == "" && !again.Interrupted {
		detail = diffOutcome(out, again)
	}
	return out, again, legDisk, detail
}

// fromDisk crosses the path a restarted server takes: one engine
// compiles the module with a disk cache attached (writing the artifact),
// a second engine that has never seen the module opens the same
// directory and must be served from it without invoking the compiler,
// and the rehydrated module is instantiated and run. Code that changes
// meaning across encode → checksum → decode — a field the format drops,
// a delta that wraps, a check that rejects valid code — shows up as a
// compiler invocation or as an outcome that differs from the fresh run.
func (o *Oracle) fromDisk(cfg engine.Config, g Generated) (out Outcome, detail string) {
	dir, err := os.MkdirTemp("", "wizgo-oracle-")
	if err != nil {
		return out, "disk leg: " + err.Error()
	}
	defer os.RemoveAll(dir)

	var e *engine.Engine
	var cm *engine.CompiledModule
	for _, pass := range []string{"store", "load"} {
		cfg.Cache = codecache.New(codecache.Options{})
		if cfg.DiskCache, err = engine.OpenDiskCache(dir); err != nil {
			return out, "disk leg: " + err.Error()
		}
		e = engine.New(cfg, nil)
		if cm, err = e.Compile(g.Bytes); err != nil {
			return out, fmt.Sprintf("disk leg: %s pass rejected a module the fresh run compiled: %v", pass, err)
		}
	}
	if st := cfg.DiskCache.Stats(); st.Hits != 1 || e.CompileCalls() != 0 {
		return out, fmt.Sprintf("disk leg: second engine was not served from the artifact (disk %+v, %d compiler calls)",
			st, e.CompileCalls())
	}
	inst, err := cm.Instantiate()
	if err != nil {
		return out, "disk leg: instantiate: " + err.Error()
	}
	defer inst.Release()
	return o.runCalls(inst, g.Calls), ""
}

// runCalls invokes every call of the workload on inst and captures the
// canonical outcome: per-call results or traps, then the final state.
func (o *Oracle) runCalls(inst *engine.Instance, calls []Call) Outcome {
	var out Outcome
	for _, call := range calls {
		co := CallOutcome{Export: call.Export}
		goctx, cancel := context.WithTimeout(context.Background(), o.Deadline)
		results, err := inst.CallWith(goctx, engine.CallOpts{Fuel: o.Fuel}, call.Export, call.Args...)
		cancel()
		if err != nil {
			var trap *rt.Trap
			if errors.As(err, &trap) {
				co.Trapped, co.Trap = true, trap.Kind
				if trap.Kind == rt.TrapInterrupted {
					out.Interrupted = true
				}
			} else {
				co.Err = err.Error()
			}
		} else {
			for _, v := range results {
				co.Results = append(co.Results, canonBits(v.Type, v.Bits))
			}
		}
		out.Calls = append(out.Calls, co)
	}
	out.captureState(inst.RT)
	return out
}

// captureState digests the instance's linear memory and globals.
func (out *Outcome) captureState(ri *rt.Instance) {
	out.MemPages = ri.Memory.Pages()
	out.MemHash = memDigest(ri.Memory.Data)
	m := ri.Module
	for gi, slot := range ri.Globals {
		t, _, err := m.GlobalTypeAt(uint32(gi))
		if err != nil {
			t = wasm.I64 // unreachable for linked instances; keep raw bits
		}
		out.Globals = append(out.Globals, canonBits(t, slot.Bits))
	}
}

// memDigest is FNV-1a taken a 64-bit word at a time (trailing bytes one
// at a time). Each step is a bijection of the running hash, so two
// memories that differ in one word never collide. The oracle digests a
// memory five times per module and configuration; byte-wise FNV was half
// of a suite sweep's time (1 MiB memories) and a third of a fuzz run's.
func memDigest(data []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for ; len(data) >= 8; data = data[8:] {
		h = (h ^ binary.LittleEndian.Uint64(data)) * prime
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// Compare finds the first divergence between outs[0] and each other
// outcome. Outcomes flagged Interrupted never participate.
func Compare(outs []EngineOutcome) *Divergence {
	var base *EngineOutcome
	for i := range outs {
		if outs[i].Outcome.Interrupted {
			continue
		}
		if base == nil {
			base = &outs[i]
			continue
		}
		if detail := diffOutcome(base.Outcome, outs[i].Outcome); detail != "" {
			return &Divergence{ConfigA: base.Config, ConfigB: outs[i].Config, Detail: detail}
		}
	}
	return nil
}

// diffOutcome returns a description of the first difference between two
// canonical outcomes, or "" when they agree.
func diffOutcome(a, b Outcome) string {
	if a.Rejected != b.Rejected {
		return fmt.Sprintf("rejection: %v (%s %s) vs %v (%s %s)",
			a.Rejected, a.RejectPhase, a.RejectErr, b.Rejected, b.RejectPhase, b.RejectErr)
	}
	if a.Rejected {
		if a.RejectPhase != b.RejectPhase {
			return fmt.Sprintf("rejection phase: %s (%s) vs %s (%s)",
				a.RejectPhase, a.RejectErr, b.RejectPhase, b.RejectErr)
		}
		return ""
	}
	if len(a.Calls) != len(b.Calls) {
		return fmt.Sprintf("call count: %d vs %d", len(a.Calls), len(b.Calls))
	}
	for i := range a.Calls {
		ca, cb := a.Calls[i], b.Calls[i]
		if ca.Trapped != cb.Trapped || ca.Trap != cb.Trap {
			return fmt.Sprintf("call %s: trap %s vs %s", ca.Export, trapLabel(ca), trapLabel(cb))
		}
		if ca.Err != cb.Err {
			return fmt.Sprintf("call %s: error %q vs %q", ca.Export, ca.Err, cb.Err)
		}
		if len(ca.Results) != len(cb.Results) {
			return fmt.Sprintf("call %s: result count %d vs %d", ca.Export, len(ca.Results), len(cb.Results))
		}
		for j := range ca.Results {
			if ca.Results[j] != cb.Results[j] {
				return fmt.Sprintf("call %s: result %d: %#x vs %#x", ca.Export, j, ca.Results[j], cb.Results[j])
			}
		}
	}
	if a.MemPages != b.MemPages {
		return fmt.Sprintf("final memory pages: %d vs %d", a.MemPages, b.MemPages)
	}
	if a.MemHash != b.MemHash {
		return fmt.Sprintf("final memory hash: %#x vs %#x", a.MemHash, b.MemHash)
	}
	if len(a.Globals) != len(b.Globals) {
		return fmt.Sprintf("global count: %d vs %d", len(a.Globals), len(b.Globals))
	}
	for i := range a.Globals {
		if a.Globals[i] != b.Globals[i] {
			return fmt.Sprintf("final global %d: %#x vs %#x", i, a.Globals[i], b.Globals[i])
		}
	}
	return ""
}

func trapLabel(c CallOutcome) string {
	if !c.Trapped {
		return "none"
	}
	return c.Trap.String()
}

// OutcomeTable renders the per-configuration outcomes as an aligned
// text table, the human-readable half of a reproducer.
func OutcomeTable(outs []EngineOutcome) string {
	var sb strings.Builder
	for _, eo := range outs {
		o := eo.Outcome
		fmt.Fprintf(&sb, "%-24s", eo.Config)
		switch {
		case o.Rejected:
			fmt.Fprintf(&sb, " rejected(%s): %s", o.RejectPhase, o.RejectErr)
		case o.Interrupted:
			fmt.Fprintf(&sb, " interrupted (deadline)")
		default:
			for _, c := range o.Calls {
				if c.Trapped {
					fmt.Fprintf(&sb, " %s=trap:%s", c.Export, c.Trap)
				} else if c.Err != "" {
					fmt.Fprintf(&sb, " %s=err:%s", c.Export, c.Err)
				} else {
					fmt.Fprintf(&sb, " %s=%v", c.Export, c.Results)
				}
			}
			fmt.Fprintf(&sb, " mem=%#x globals=%v", o.MemHash, o.Globals)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
