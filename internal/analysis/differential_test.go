package analysis_test

import (
	"bytes"
	"errors"
	"testing"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// The differential suite for the one fact the analysis derives. A
// read-only proof licenses exactly one thing — Instance.Reset skipping
// the memory restore — so the evidence of soundness is that a workload
// run on a reset instance is observably identical to its run on the
// fresh one, under every catalog configuration. The generated-module
// oracle (internal/difftest) makes the same check per seed; this one
// makes it on the benchmark suites' real modules.

// outcome is everything a guest run can observe.
type outcome struct {
	checksum int64
	trapKind rt.TrapKind
	trapped  bool
	memory   []byte
}

// run executes _start (and, when it returns, checksum) on inst and
// captures the outcome. A non-trap error fails the test (it would
// indicate a broken harness, not a divergence).
func run(t *testing.T, name string, inst *engine.Instance) outcome {
	t.Helper()
	var o outcome
	if _, err := inst.Call("_start"); err != nil {
		var trap *rt.Trap
		if !errors.As(err, &trap) {
			t.Fatalf("%s: non-trap error: %v", name, err)
		}
		o.trapped = true
		o.trapKind = trap.Kind
	} else if sum, err := inst.Call("checksum"); err == nil && len(sum) == 1 {
		o.checksum = sum[0].I64()
	}
	o.memory = append([]byte(nil), inst.RT.Memory.Data...)
	return o
}

func assertSame(t *testing.T, name string, a, b outcome) {
	t.Helper()
	if a.trapped != b.trapped || a.trapKind != b.trapKind {
		t.Errorf("%s: trap divergence: (%v, %v) vs (%v, %v)",
			name, a.trapped, a.trapKind, b.trapped, b.trapKind)
	}
	if a.checksum != b.checksum {
		t.Errorf("%s: checksum divergence: %d vs %d", name, a.checksum, b.checksum)
	}
	if !bytes.Equal(a.memory, b.memory) {
		t.Errorf("%s: final linear memory diverges (%d vs %d bytes)",
			name, len(a.memory), len(b.memory))
	}
}

// differentialModules picks the workload modules to push through every
// engine. -short keeps one fast item per suite; the full run covers a
// broader slice of all three generated suites.
func differentialModules(t *testing.T) []workloads.Item {
	poly, libs, ostr := workloads.PolyBench(), workloads.Libsodium(), workloads.Ostrich()
	if testing.Short() {
		return []workloads.Item{poly[0], libs[0], ostr[3]}
	}
	var items []workloads.Item
	for _, suite := range [][]workloads.Item{poly, libs, ostr} {
		for i, it := range suite {
			if i%4 == 0 { // every 4th item bounds runtime while sampling each suite
				items = append(items, it)
			}
		}
	}
	return items
}

// TestDifferentialWorkloads runs generated benchmark modules through
// every catalog configuration on a fresh instance, resets it the way
// the instance pool does, runs again, and asserts identical observable
// behavior.
func TestDifferentialWorkloads(t *testing.T) {
	items := differentialModules(t)
	for _, cfg := range engines.Catalog() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			e := engine.New(cfg, nil)
			for _, item := range items {
				name := cfg.Name + "/" + item.Suite + "/" + item.Name
				inst, err := e.Instantiate(item.Bytes)
				if err != nil {
					t.Fatalf("%s: instantiate: %v", name, err)
				}
				snap := inst.Snapshot()
				inst.RT.Memory.EnableWriteTracking()
				fresh := run(t, name, inst)
				reset := func() {
					if err := inst.Reset(snap); err != nil {
						t.Fatalf("%s: reset: %v", name, err)
					}
				}
				// _start wrote, so this reset is a real restore.
				reset()
				assertSame(t, name+" (after reset)", fresh, run(t, name, inst))
				// Only a proven read-only call between two resets: the
				// second may skip the restore, and the memory must still
				// be the snapshot's when _start runs next.
				reset()
				if _, err := inst.Call("checksum"); err != nil {
					t.Fatalf("%s: checksum on a reset instance: %v", name, err)
				}
				if inst.RT.MemTouched {
					t.Errorf("%s: checksum is not proven read-only; no reset is ever skipped here", name)
				}
				reset()
				assertSame(t, name+" (after skipped reset)", fresh, run(t, name, inst))
				inst.Release()
			}
		})
	}
}

// trapModules builds modules that definitely trap at the boundary no
// executor may move: a counted loop is exactly the shape whose bounds
// check and back-edge poll a compiler is tempted to drop.
func trapModules() map[string][]byte {
	mods := map[string][]byte{}

	// A counted loop whose stores start in bounds and walk off the end
	// of memory: the trap must surface identically in every tier.
	b := wasm.NewBuilder()
	b.AddMemory(1, 1)
	f := b.NewFunc("_start", wasm.FuncType{})
	i := f.AddLocal(wasm.I32)
	f.Loop(wasm.BlockEmpty)
	f.LocalGet(i).LocalGet(i).Store(wasm.OpI32Store, 0)
	f.LocalGet(i).I32Const(4096).Op(wasm.OpI32Add).LocalTee(i)
	f.I32Const(1 << 20).Op(wasm.OpI32LtS).BrIf(0)
	f.End()
	f.End()
	b.Export("_start", f.Idx)
	mods["oob-walk"] = b.Encode()

	// An in-bounds counted loop that ends in unreachable.
	b = wasm.NewBuilder()
	b.AddMemory(1, 1)
	f = b.NewFunc("_start", wasm.FuncType{})
	i = f.AddLocal(wasm.I32)
	f.Loop(wasm.BlockEmpty)
	f.LocalGet(i).I64Const(7).Store(wasm.OpI64Store, 8)
	f.LocalGet(i).I32Const(8).Op(wasm.OpI32Add).LocalTee(i)
	f.I32Const(4096).Op(wasm.OpI32LtS).BrIf(0)
	f.End()
	f.Op(wasm.OpUnreachable)
	f.End()
	b.Export("_start", f.Idx)
	mods["loop-then-unreachable"] = b.Encode()

	return mods
}

// TestDifferentialTraps asserts trapping modules trap with the expected
// kind under every configuration, and leave the same memory behind as
// the in-place interpreter.
func TestDifferentialTraps(t *testing.T) {
	mods := trapModules()
	want := map[string]rt.TrapKind{
		"oob-walk":              rt.TrapOOBMemory,
		"loop-then-unreachable": rt.TrapUnreachable,
	}
	runFresh := func(t *testing.T, cfg engine.Config, name string, module []byte) outcome {
		inst, err := engine.New(cfg, nil).Instantiate(module)
		if err != nil {
			t.Fatalf("%s: instantiate: %v", name, err)
		}
		defer inst.Release()
		return run(t, name, inst)
	}
	ref := map[string]outcome{}
	for name, module := range mods {
		ref[name] = runFresh(t, engines.WizardINT(), "reference/"+name, module)
	}
	for _, cfg := range engines.Catalog() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			for name, module := range mods {
				full := cfg.Name + "/" + name
				got := runFresh(t, cfg, full, module)
				if !got.trapped || got.trapKind != want[name] {
					t.Errorf("%s: want trap %v, got trapped=%v kind=%v", full, want[name], got.trapped, got.trapKind)
				}
				assertSame(t, full, ref[name], got)
			}
		})
	}
}

// TestAnalysisProducesFacts guards against the differential suite
// passing vacuously: the workloads must actually carry functions proven
// read-only (so some reset is skipped) next to functions that write.
func TestAnalysisProducesFacts(t *testing.T) {
	e := engine.New(engines.WizardSPC(), nil)
	var readOnly, funcs int
	for _, item := range differentialModules(t) {
		cm, err := e.Compile(item.Bytes)
		if err != nil {
			t.Fatalf("%s: %v", item.Name, err)
		}
		st := cm.AnalysisStats()
		readOnly += st.ReadOnly
		funcs += st.Funcs
	}
	if readOnly == 0 || readOnly == funcs {
		t.Fatalf("differential corpus has %d read-only of %d functions; the suite needs both kinds", readOnly, funcs)
	}
	t.Logf("differential corpus: %d of %d functions proven read-only", readOnly, funcs)
}
