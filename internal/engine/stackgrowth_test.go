package engine_test

import (
	"errors"
	"testing"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/heap"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// The value stack starts at 4096 slots and doubles on demand up to
// Config.StackSlots. These tests drive the growth from every place a
// frame can be standing when it happens: a deep call or call_indirect
// chain, a host import that re-entered the guest, another instance's
// import, a loop about to tier up, a GC root scan and a probe.

const initialStackSlots = 4096

// growthConfigs is every configuration a growth test runs under: the
// correctness matrix plus the executors the benchmark reports.
func growthConfigs() []engine.Config {
	cfgs := allConfigs()
	seen := map[string]bool{}
	for _, c := range cfgs {
		seen[c.Name] = true
	}
	for _, c := range engines.DifferentialMatrix() {
		if !seen[c.Name] {
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

var i64ToI64 = sig([]wasm.ValueType{wasm.I64}, []wasm.ValueType{wasm.I64})

// emitSum adds sum(n) = n + sum(n-1), sum(0) = 0, with pad unused i64
// locals so a chain a few thousand deep doubles the stack several times.
// Every frame reads n and a second local after its call returns, so a
// frame that kept running on the pre-growth arrays (or lost a register
// the compiler kept n in) computes a wrong total. With indirect the
// recursion goes through table slot 0.
func emitSum(b *wasm.Builder, name string, pad int, indirect bool) *wasm.FuncBuilder {
	f := b.NewFunc(name, i64ToI64)
	for i := 0; i < pad; i++ {
		f.AddLocal(wasm.I64)
	}
	keep := f.AddLocal(wasm.I64)
	f.LocalGet(0).Op(wasm.OpI64Eqz).If(wasm.BlockVal(wasm.I64))
	f.I64Const(0)
	f.Else()
	f.LocalGet(0).I64Const(7).Op(wasm.OpI64Mul).LocalSet(keep)
	f.LocalGet(0).I64Const(1).Op(wasm.OpI64Sub)
	if indirect {
		f.I32Const(0).CallIndirect(b.AddType(i64ToI64))
	} else {
		f.Call(f.Idx)
	}
	f.LocalGet(0).Op(wasm.OpI64Add)
	f.LocalGet(keep).LocalGet(0).I64Const(7).Op(wasm.OpI64Mul).Op(wasm.OpI64Sub).Op(wasm.OpI64Add)
	f.End()
	f.End()
	b.Export(name, f.Idx)
	return f
}

func triangle(n int64) int64 { return n * (n + 1) / 2 }

func mustCallI64(t *testing.T, inst *engine.Instance, name string, arg int64) int64 {
	t.Helper()
	res, err := inst.Call(name, wasm.ValI64(arg))
	if err != nil {
		t.Fatalf("%s(%d): %v", name, arg, err)
	}
	return res[0].I64()
}

func TestStackGrowsUnderDeepRecursion(t *testing.T) {
	b := wasm.NewBuilder()
	b.AddTable(1)
	emitSum(b, "sum", 20, false)
	sumi := emitSum(b, "sumi", 20, true)
	b.AddElem(0, []uint32{sumi.Idx})
	bytes := b.Encode()

	const depth = 9000 // 9000 frames of 22 locals: 4096 → 262144 slots mid-chain
	for _, cfg := range growthConfigs() {
		for _, name := range []string{"sum", "sumi"} {
			t.Run(cfg.Name+"/"+name, func(t *testing.T) {
				inst, err := engine.New(cfg, nil).Instantiate(bytes)
				if err != nil {
					t.Fatal(err)
				}
				if n := len(inst.Ctx.Stack.Slots); n != initialStackSlots {
					t.Fatalf("fresh stack has %d slots, want %d", n, initialStackSlots)
				}
				if got := mustCallI64(t, inst, name, depth); got != triangle(depth) {
					t.Errorf("%s(%d) = %d, want %d", name, depth, got, triangle(depth))
				}
				grown := len(inst.Ctx.Stack.Slots)
				if grown < 32*initialStackSlots {
					t.Errorf("stack has %d slots after a %d-deep chain, want at least five doublings", grown, depth)
				}
				if cfg.Tags && len(inst.Ctx.Stack.Tags) != grown {
					t.Errorf("tags have %d entries for %d slots", len(inst.Ctx.Stack.Tags), grown)
				}
				// A grown stack is kept: the same chain again allocates nothing.
				if got := mustCallI64(t, inst, name, depth); got != triangle(depth) {
					t.Errorf("second %s(%d) = %d, want %d", name, depth, got, triangle(depth))
				}
				if n := len(inst.Ctx.Stack.Slots); n != grown {
					t.Errorf("stack went from %d to %d slots on a repeat", grown, n)
				}
			})
		}
	}
}

// TestStackOverflowDepthIsPinned holds the trap point where it was when
// the stack was allocated at its cap: the depths below were recorded at
// the parent commit (one 8 MB + 1 MB stack per instance), in every
// configuration, and did not differ between them. rec is
// TestTrapStackOverflow's function with a call counter; wide30 and
// wide200 carry that many i64 locals, so the slot cap decides before
// MaxDepth does.
func TestStackOverflowDepthIsPinned(t *testing.T) {
	b := wasm.NewBuilder()
	g := b.AddGlobal(wasm.I32, true, wasm.ValI32(0))
	for _, fn := range []struct {
		name   string
		locals int
	}{{"rec", 0}, {"wide30", 30}, {"wide200", 200}} {
		f := b.NewFunc(fn.name, sig(nil, nil))
		for i := 0; i < fn.locals; i++ {
			f.AddLocal(wasm.I64)
		}
		f.GlobalGet(g).I32Const(1).Op(wasm.OpI32Add).GlobalSet(g).Call(f.Idx).End()
		b.Export(fn.name, f.Idx)
	}
	bytes := b.Encode()

	pinned := []struct {
		stackSlots, maxDepth int
		fn                   string
		depth                int32
	}{
		{0, 0, "rec", 10000}, // default cap 1<<20, default MaxDepth 10000
		{0, 0, "wide30", 10000},
		{0, 0, "wide200", 5242},
		{1 << 16, 0, "rec", 10000}, // what difftest.NewOracle sets
		{1 << 16, 0, "wide30", 2182},
		{1 << 16, 0, "wide200", 327},
		{1 << 16, 100, "wide200", 100}, // MaxDepth wins when it is lower
		{1 << 10, 0, "wide30", 31},     // a cap below the initial size
	}
	for _, cfg := range growthConfigs() {
		for _, p := range pinned {
			c := cfg
			c.StackSlots, c.MaxDepth = p.stackSlots, p.maxDepth
			inst, err := engine.New(c, nil).Instantiate(bytes)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			_, err = inst.Call(p.fn)
			var trap *rt.Trap
			if !errors.As(err, &trap) || trap.Kind != rt.TrapStackOverflow {
				t.Errorf("%s: %s under StackSlots=%d MaxDepth=%d: %v, want a stack-overflow trap",
					cfg.Name, p.fn, p.stackSlots, p.maxDepth, err)
				continue
			}
			if got := int32(inst.RT.Globals[g].Bits); got != p.depth {
				t.Errorf("%s: %s under StackSlots=%d MaxDepth=%d trapped at depth %d, want %d",
					cfg.Name, p.fn, p.stackSlots, p.maxDepth, got, p.depth)
			}
			if max := c.StackSlots; max != 0 && len(inst.Ctx.Stack.Slots) > max {
				t.Errorf("%s: stack grew to %d slots past its cap %d", cfg.Name, len(inst.Ctx.Stack.Slots), max)
			}
		}
	}
}

// TestHostResultsSurviveReentrantGrowth: invoke hands a host function
// its results as a slice of the value stack. A host that calls back into
// the guest deeply enough to grow the stack then writes its results into
// the array that was replaced; invoke must carry them over.
func TestHostResultsSurviveReentrantGrowth(t *testing.T) {
	b := wasm.NewBuilder()
	reenter := b.ImportFunc("env", "reenter", i64ToI64)
	emitSum(b, "sum", 20, false)
	// outer(x) = reenter(x) + x, x read back after the host call.
	outer := b.NewFunc("outer", i64ToI64)
	outer.LocalGet(0).Call(reenter).LocalGet(0).Op(wasm.OpI64Add).End()
	b.Export("outer", outer.Idx)
	bytes := b.Encode()

	const depth = 3000
	for _, cfg := range growthConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			var inst *engine.Instance
			linker := engine.NewLinker().Func("env", "reenter", i64ToI64,
				func(ctx *rt.Context, args, results []uint64) error {
					x := args[0]
					res, err := inst.Call("sum", wasm.ValI64(depth))
					if err != nil {
						return err
					}
					results[0] = x + uint64(res[0].I64())
					return nil
				})
			var err error
			inst, err = engine.New(cfg, linker).Instantiate(bytes)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(5) + triangle(depth) + 5
			if got := mustCallI64(t, inst, "outer", 5); got != want {
				t.Errorf("outer(5) = %d, want %d — the host's result went to the pre-growth stack", got, want)
			}
			if len(inst.Ctx.Stack.Slots) == initialStackSlots {
				t.Error("the re-entrant call did not grow the stack; the test exercises nothing")
			}
		})
	}
}

// TestCrossInstanceCalleeGrowsOwnersStack: a function imported from
// another instance runs on its owner's stack, so the owner's grows and
// the caller's does not, and the result still crosses back.
func TestCrossInstanceCalleeGrowsOwnersStack(t *testing.T) {
	eb := wasm.NewBuilder()
	emitSum(eb, "sum", 20, false)
	exporter := eb.Encode()

	ib := wasm.NewBuilder()
	sum := ib.ImportFunc("lib", "sum", i64ToI64)
	via := ib.NewFunc("via", i64ToI64)
	via.LocalGet(0).Call(sum).LocalGet(0).Op(wasm.OpI64Add).End()
	ib.Export("via", via.Idx)
	importer := ib.Encode()

	const depth = 9000
	for _, cfg := range growthConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			exp, err := engine.New(cfg, nil).Instantiate(exporter)
			if err != nil {
				t.Fatal(err)
			}
			linker := engine.NewLinker()
			if err := linker.DefineInstance("lib", exp); err != nil {
				t.Fatal(err)
			}
			imp, err := engine.New(cfg, linker).Instantiate(importer)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := mustCallI64(t, imp, "via", depth), triangle(depth)+depth; got != want {
				t.Errorf("via(%d) = %d, want %d", depth, got, want)
			}
			if len(exp.Ctx.Stack.Slots) == initialStackSlots {
				t.Error("the owner's stack did not grow")
			}
			if n := len(imp.Ctx.Stack.Slots); n != initialStackSlots {
				t.Errorf("the caller's stack grew to %d slots for a call that ran on the owner's", n)
			}
		})
	}
}

// TestTierUpAcrossGrowth runs a hot loop before and after the call that
// grows the stack, under an OSR threshold the loops cross: the frame
// that restacks is an interpreter frame about to tier up in one export
// and a compiled frame entered through OSR in the other.
func TestTierUpAcrossGrowth(t *testing.T) {
	b := wasm.NewBuilder()
	sum := emitSum(b, "sum", 20, false)
	const iters = 1000
	for _, name := range []string{"deep_then_loop", "loop_then_deep"} {
		f := b.NewFunc(name, i64ToI64)
		i, acc := f.AddLocal(wasm.I32), f.AddLocal(wasm.I64)
		loop := func() {
			workloads.ForI32Func(f, i, 0, iters, func() {
				f.LocalGet(acc).LocalGet(i).Op(wasm.OpI64ExtendI32U).Op(wasm.OpI64Add).LocalSet(acc)
			})
		}
		deep := func() {
			f.LocalGet(acc).LocalGet(0).Call(sum.Idx).Op(wasm.OpI64Add).LocalSet(acc)
		}
		if name == "deep_then_loop" {
			deep()
			loop()
		} else {
			loop()
			deep()
			loop()
		}
		f.LocalGet(acc).LocalGet(0).Op(wasm.OpI64Add).End()
		b.Export(name, f.Idx)
	}
	bytes := b.Encode()

	const depth = 9000
	cfgs := append(growthConfigs(), engines.WizardTiered(10))
	for _, cfg := range cfgs {
		for name, loops := range map[string]int64{"deep_then_loop": 1, "loop_then_deep": 2} {
			inst, err := engine.New(cfg, nil).Instantiate(bytes)
			if err != nil {
				t.Fatal(err)
			}
			inst.Ctx.CountStats = true
			want := triangle(depth) + loops*triangle(iters-1) + depth
			if got := mustCallI64(t, inst, name, depth); got != want {
				t.Errorf("%s (OSR %d): %s(%d) = %d, want %d", cfg.Name, cfg.OSRThreshold, name, depth, got, want)
			}
			if len(inst.Ctx.Stack.Slots) == initialStackSlots {
				t.Errorf("%s: %s did not grow the stack", cfg.Name, name)
			}
			if cfg.Mode == engine.ModeTiered && inst.Ctx.Stats.OSRUps == 0 {
				t.Errorf("%s (OSR %d): %s never tiered up", cfg.Name, cfg.OSRThreshold, name)
			}
		}
	}
}

// TestRootScanAfterGrowth: a reference parked in a local before the
// stack grew must be found by the collector afterwards — the walker
// reads the current arrays, and growth carried slots and tags over.
func TestRootScanAfterGrowth(t *testing.T) {
	b := wasm.NewBuilder()
	collect := b.ImportFunc("env", "collect", sig(nil, nil))
	sum := emitSum(b, "sum", 20, false)
	keep := b.NewFunc("keepalive", sig([]wasm.ValueType{wasm.ExternRef, wasm.ExternRef, wasm.I64}, []wasm.ValueType{wasm.I32}))
	l := keep.AddLocal(wasm.ExternRef)
	keep.LocalGet(0).LocalSet(l) // a ref in a local
	// A ref that lives only on the operand stack: its stored tag is all
	// the walker has (locals are scanned by their declared types).
	keep.LocalGet(1)
	keep.RefNull(wasm.ExternRef).LocalSet(1)
	keep.LocalGet(2).Call(sum.Idx).Op(wasm.OpDrop) // grow
	keep.Call(collect)                             // GC mid-function, after the growth
	keep.Op(wasm.OpRefIsNull).End()
	b.Export("keepalive", keep.Idx)
	bytes := b.Encode()

	for _, tc := range []struct {
		cfg  engine.Config
		mode heap.ScanMode
	}{
		{engines.WizardINT(), heap.ScanTags},
		{engines.WizardSPC(), heap.ScanTags},
		{engines.WizardTiered(2), heap.ScanTags},
		{engines.LiftoffLike(), heap.ScanStackmaps},
	} {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			h := heap.New(tc.mode)
			linker := engine.NewLinker().Func("env", "collect", sig(nil, nil),
				func(ctx *rt.Context, args, results []uint64) error {
					_, err := h.Collect(ctx)
					return err
				})
			cfg := tc.cfg
			cfg.Tags = true
			inst, err := engine.New(cfg, linker).Instantiate(bytes)
			if err != nil {
				t.Fatal(err)
			}
			a, bb := h.Alloc(0xA), h.Alloc(0xB)
			h.Alloc(0xDEAD) // unreferenced: must be swept
			if _, err := inst.Call("keepalive", wasm.ValRef(a), wasm.ValRef(bb), wasm.ValI64(3000)); err != nil {
				t.Fatal(err)
			}
			if len(inst.Ctx.Stack.Slots) == initialStackSlots {
				t.Fatal("the stack did not grow before the collection")
			}
			if h.Get(a) == nil || h.Get(bb) == nil {
				t.Error("a live reference was collected after the stack grew")
			}
			if h.Size() != 2 {
				t.Errorf("%d objects survive, want 2", h.Size())
			}
		})
	}
}

// localReader records local 1 of the frame it fires in.
type localReader struct{ got []uint64 }

func (p *localReader) Fire(a *rt.Accessor) { p.got = append(p.got, a.Local(1)) }

// TestProbeReadsLocalsAfterGrowth: a local written after the growing
// call returned must be what a probe's Accessor reads — a frame still
// writing the pre-growth array would leave the Accessor the old value.
func TestProbeReadsLocalsAfterGrowth(t *testing.T) {
	b := wasm.NewBuilder()
	sum := emitSum(b, "sum", 20, false)
	f := b.NewFunc("probed", i64ToI64)
	r := f.AddLocal(wasm.I64)
	f.I64Const(-1).LocalSet(r)
	f.LocalGet(0).Call(sum.Idx).LocalSet(r)
	probePC := len(f.Body())
	f.LocalGet(r).End()
	b.Export("probed", f.Idx)
	bytes := b.Encode()

	const depth = 3000
	// allConfigs, not growthConfigs: the rewriter and copy-and-patch
	// tiers fire no probes, and the optimizing tier's pinned locals are
	// not in their slots when one fires.
	for _, cfg := range allConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			inst, err := engine.New(cfg, nil).Instantiate(bytes)
			if err != nil {
				t.Fatal(err)
			}
			p := &localReader{}
			if err := inst.AttachProbe(f.Idx, probePC, p); err != nil {
				t.Fatal(err)
			}
			if got := mustCallI64(t, inst, "probed", depth); got != triangle(depth) {
				t.Errorf("probed(%d) = %d, want %d", depth, got, triangle(depth))
			}
			if len(p.got) != 1 || int64(p.got[0]) != triangle(depth) {
				t.Errorf("probe read local 1 = %v, want [%d]", p.got, triangle(depth))
			}
			if len(inst.Ctx.Stack.Slots) == initialStackSlots {
				t.Error("the stack did not grow")
			}
		})
	}
}
