package engine_test

import (
	"sync"
	"testing"

	"wizgo/internal/codecache"
	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/mach"
	"wizgo/internal/monitors"
	"wizgo/internal/spc"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// corpus returns a few workload modules spanning the three suites, kept
// small so -race runs stay fast.
func corpus() []workloads.Item {
	return []workloads.Item{
		workloads.PolyBench()[0],
		workloads.Libsodium()[0],
		workloads.Ostrich()[3],
	}
}

// counterModule builds a module with a memory-backed counter so that
// instance-state isolation is observable: bump() increments a cell and
// returns the new value.
func counterModule() []byte {
	b := wasm.NewBuilder()
	b.AddMemory(1, 1)
	f := b.NewFunc("bump", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
	f.I32Const(0)
	f.I32Const(0).Load(wasm.OpI32Load, 0)
	f.I32Const(1).Op(wasm.OpI32Add)
	f.Store(wasm.OpI32Store, 0)
	f.I32Const(0).Load(wasm.OpI32Load, 0)
	f.End()
	b.Export("bump", f.Idx)
	return b.Encode()
}

func TestCompileOnceInstantiateMany(t *testing.T) {
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(counterModule())
	if err != nil {
		t.Fatal(err)
	}
	if cm.Timings.CodeBytes == 0 || len(cm.Codes) != 1 {
		t.Fatalf("compile artifact incomplete: %d codes, %d code bytes",
			len(cm.Codes), cm.Timings.CodeBytes)
	}

	// Each instance must own its memory: counters advance independently.
	a, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		got, err := a.Call("bump")
		if err != nil {
			t.Fatal(err)
		}
		if got[0].I32() != int32(i) {
			t.Fatalf("instance a bump %d = %d", i, got[0].I32())
		}
	}
	got, err := b.Call("bump")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].I32() != 1 {
		t.Fatalf("instance b saw instance a's memory: bump = %d", got[0].I32())
	}
}

func TestInstantiateChecksumMatchesSingleShot(t *testing.T) {
	// The two-phase path must compute exactly what the single-shot path
	// computes, for every workload in the corpus.
	for _, it := range corpus() {
		e := engine.New(engines.WizardSPC(), nil)
		single, err := e.Instantiate(it.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := single.Call("_start"); err != nil {
			t.Fatal(err)
		}
		want, err := single.Call("checksum")
		if err != nil {
			t.Fatal(err)
		}

		cm, err := e.Compile(it.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			inst, err := cm.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Call("_start"); err != nil {
				t.Fatal(err)
			}
			got, err := inst.Call("checksum")
			if err != nil {
				t.Fatal(err)
			}
			if got[0].I64() != want[0].I64() {
				t.Errorf("%s/%s round %d: checksum %#x != %#x",
					it.Suite, it.Name, round, got[0].I64(), want[0].I64())
			}
		}
	}
}

func TestParallelCompileMatchesSerial(t *testing.T) {
	// Per-function compilation must be order- and
	// concurrency-insensitive: the same code comes out of 1 worker and
	// 8 workers.
	for _, it := range corpus() {
		serialCfg := engines.WizardSPC()
		serialCfg.CompileWorkers = 1
		parallelCfg := engines.WizardSPC()
		parallelCfg.CompileWorkers = 8

		serial, err := engine.New(serialCfg, nil).Compile(it.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := engine.New(parallelCfg, nil).Compile(it.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Codes) != len(parallel.Codes) {
			t.Fatalf("%s: code count %d != %d", it.Name, len(serial.Codes), len(parallel.Codes))
		}
		if serial.Timings.CodeBytes != parallel.Timings.CodeBytes {
			t.Errorf("%s: total code bytes %d != %d",
				it.Name, serial.Timings.CodeBytes, parallel.Timings.CodeBytes)
		}
		for i := range serial.Codes {
			s := serial.Codes[i].(*mach.Code)
			p := parallel.Codes[i].(*mach.Code)
			if len(s.Instrs) != len(p.Instrs) || s.CodeBytes != p.CodeBytes {
				t.Errorf("%s func %d: serial %d instrs/%d bytes, parallel %d instrs/%d bytes",
					it.Name, i, len(s.Instrs), s.CodeBytes, len(p.Instrs), p.CodeBytes)
			}
		}
	}
}

func TestConcurrentCompile(t *testing.T) {
	// Many goroutines compiling the whole corpus on one engine: exercised
	// under -race in CI. Each compile is independent; results must be
	// complete every time.
	e := engine.New(engines.WizardSPC(), nil)
	items := corpus()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, it := range items {
				cm, err := e.Compile(it.Bytes)
				if err != nil {
					t.Error(err)
					return
				}
				for i, c := range cm.Codes {
					if c == nil {
						t.Errorf("%s: func %d not compiled", it.Name, i)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentInstantiateAndCall(t *testing.T) {
	// One CompiledModule, many goroutines instantiating and running
	// concurrently — the serving shape. Checksums must all agree.
	item := workloads.Ostrich()[3] // crc: fast
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Call("_start"); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Call("checksum")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				inst, err := cm.Instantiate()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := inst.Call("_start"); err != nil {
					t.Error(err)
					return
				}
				got, err := inst.Call("checksum")
				if err != nil {
					t.Error(err)
					return
				}
				if got[0].I64() != want[0].I64() {
					t.Errorf("checksum %#x != %#x", got[0].I64(), want[0].I64())
				}
			}
		}()
	}
	wg.Wait()
}

func TestCompileCacheHitsAndRebinding(t *testing.T) {
	cache := codecache.New(codecache.Options{})
	cfg := engines.WizardSPC()
	cfg.Cache = cache
	item := workloads.Ostrich()[3]

	e1 := engine.New(cfg, nil)
	cm1, err := e1.Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	cm2, err := e1.Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if cm1 != cm2 {
		t.Error("same engine, same bytes: expected the identical cached artifact")
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats after two compiles = %+v, want 1 miss 1 hit", st)
	}

	// A second engine with the same configuration shares the artifact
	// but gets it re-bound, so instantiation uses its own linker.
	e2 := engine.New(cfg, nil)
	cm3, err := e2.Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if cm3 == cm1 {
		t.Error("artifact not re-bound to the second engine")
	}
	if cm3.Engine() != e2 {
		t.Error("re-bound artifact does not reference the compiling engine")
	}
	if cm3.Codes[0] != cm1.Codes[0] {
		t.Error("re-bound artifact should share the compiled code")
	}

	// A different configuration must never share the artifact.
	other := engines.LiftoffLike()
	other.Cache = cache
	if _, err := engine.New(other, nil).Compile(item.Bytes); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Errorf("cache has %d artifacts, want 2 (one per configuration)", cache.Len())
	}

	inst, err := cm3.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintSeparatesTierFlags(t *testing.T) {
	// Two configs sharing Name and tier name but differing in a single
	// compiler flag must never share a cached artifact.
	a := engines.SPCVariant("same", func(c *spc.Config) {})
	b := engines.SPCVariant("same", func(c *spc.Config) { c.ConstFold = false })
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("configs with different tier flags share fingerprint %q", a.Fingerprint())
	}
	if a.Fingerprint() != engines.SPCVariant("same", func(c *spc.Config) {}).Fingerprint() {
		t.Error("identical configs should share a fingerprint")
	}
}

func TestProbeIsolationBetweenInstances(t *testing.T) {
	// Attaching a monitor to one instance must not deoptimize or
	// instrument a sibling instance sharing the same CompiledModule.
	item := workloads.Ostrich()[3]
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	probed, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}

	mon, err := monitors.AttachBranchMonitor(probed)
	if err != nil {
		t.Fatal(err)
	}

	// The shared artifact must still be valid even though the probed
	// instance invalidated its private view during recompilation.
	for _, code := range cm.Codes {
		if code.(*mach.Code).Invalidated {
			t.Fatal("probe attach invalidated the shared compiled module")
		}
	}

	plain.Ctx.CountStats = true
	if _, err := plain.Call("_start"); err != nil {
		t.Fatal(err)
	}
	if plain.Ctx.Stats.ProbeFires != 0 {
		t.Errorf("unprobed instance fired %d probes", plain.Ctx.Stats.ProbeFires)
	}
	if plain.Ctx.Stats.MachOps == 0 {
		t.Error("unprobed instance did not run compiled code")
	}

	if _, err := probed.Call("_start"); err != nil {
		t.Fatal(err)
	}
	if mon.TotalFires() == 0 {
		t.Error("probed instance fired no probes")
	}
}

func TestConcurrentCachedCompileSingleFlight(t *testing.T) {
	// Hammer one engine+cache with concurrent compiles of the same
	// corpus: exactly one compilation per (module, config) must happen.
	cache := codecache.New(codecache.Options{})
	cfg := engines.WizardSPC()
	cfg.Cache = cache
	e := engine.New(cfg, nil)
	items := corpus()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, it := range items {
				if _, err := e.Compile(it.Bytes); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := cache.Stats(); st.Misses != uint64(len(items)) {
		t.Errorf("misses = %d, want %d (one real compile per module)",
			cache.Stats().Misses, len(items))
	}
}

func TestReleaseRecyclesStacks(t *testing.T) {
	// Released stacks are reused dirty; correctness must not depend on
	// zeroed slots. Run a real workload through many instantiate →
	// run → release cycles and demand stable checksums.
	item := workloads.Ostrich()[3]
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := 0; i < 5; i++ {
		inst, err := cm.Instantiate()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Call("_start"); err != nil {
			t.Fatal(err)
		}
		got, err := inst.Call("checksum")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got[0].I64()
		} else if got[0].I64() != want {
			t.Fatalf("cycle %d: checksum %#x != %#x on a recycled stack", i, got[0].I64(), want)
		}
		inst.Release()
		inst.Release() // double release must be a no-op
	}
}

func TestLazyTierInstancesKeepOwnState(t *testing.T) {
	// Under lazy compilation the artifact carries no code up front; code
	// compiled on first call is shared, instance state is not.
	e := engine.New(engines.WizardTiered(100), nil)
	cm, err := e.Compile(counterModule())
	if err != nil {
		t.Fatal(err)
	}
	if cm.Codes != nil {
		t.Fatal("lazy configuration should not compile eagerly")
	}
	a, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Call("bump"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Call("bump")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].I32() != 1 {
		t.Fatalf("lazy instances share state: bump = %d", got[0].I32())
	}
}

// TestLazyTierCompilesOncePerModule: code compiled on first call lands
// in the module's shared table, so however many pooled instances call
// past the threshold, each hot function compiles exactly once.
func TestLazyTierCompilesOncePerModule(t *testing.T) {
	b := wasm.NewBuilder()
	sig := wasm.FuncType{Results: []wasm.ValueType{wasm.I32}}
	hot := []string{"f", "g", "h"}
	for i, name := range hot {
		f := b.NewFunc(name, sig)
		f.I32Const(int32(i)).End()
		b.Export(name, f.Idx)
	}
	never := b.NewFunc("never", sig) // never called, never compiled
	never.I32Const(-1).End()
	b.Export("never", never.Idx)

	cfg := engines.WizardTiered(100)
	e := engine.New(cfg, nil)
	cm, err := e.Compile(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	const instances = 8
	pool := cm.NewPool(instances)
	defer pool.Close()
	// All instances are held at once, so the pool cannot hand one
	// instance to every caller in turn.
	insts := make([]*engine.Instance, instances)
	for i := range insts {
		if insts[i], err = pool.Get(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, inst := range insts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, name := range hot {
				for c := 0; c <= cfg.CallThreshold; c++ {
					got, err := inst.Call(name)
					if err != nil || got[0].I32() != int32(i) {
						t.Errorf("%s = %v, %v", name, got, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, inst := range insts {
		pool.Put(inst)
	}
	if got := e.CompileCalls(); got != uint64(len(hot)) {
		t.Errorf("%d instances past the threshold compiled %d times, want once per hot function (%d)",
			instances, got, len(hot))
	}
}

// wideModule is the benchmark's compile-wide shape at n functions:
// straight-line i64 arithmetic chains with an if, a store and a load per
// step, forty steps per function.
func wideModule(n int) []byte {
	b := wasm.NewBuilder()
	b.AddMemory(1, 1)
	sig := wasm.FuncType{Params: []wasm.ValueType{wasm.I64}, Results: []wasm.ValueType{wasm.I64}}
	for fi := 0; fi < n; fi++ {
		f := b.NewFunc("", sig)
		acc, tmp := f.AddLocal(wasm.I64), f.AddLocal(wasm.I64)
		for k := 0; k < 40; k++ {
			f.LocalGet(acc).LocalGet(0).I64Const(int64(fi*40+k+1) << 33).Op(wasm.OpI64Mul)
			f.Op(wasm.OpI64Add).LocalSet(acc)
			f.LocalGet(acc).I64Const(int64(k + 3)).Op(wasm.OpI64Shl).LocalSet(tmp)
			f.LocalGet(acc).LocalGet(tmp).Op(wasm.OpI64Xor).LocalSet(acc)
			f.LocalGet(acc).I64Const(1).Op(wasm.OpI64And).Op(wasm.OpI64Eqz)
			f.If(wasm.BlockEmpty)
			f.LocalGet(acc).I64Const(int64(k)).Op(wasm.OpI64Add).LocalSet(acc)
			f.End()
			f.I32Const(int32(k%64)).LocalGet(acc).Store(wasm.OpI64Store, 0)
			f.I32Const(int32(k%64)).Load(wasm.OpI64Load, 0).LocalGet(acc)
			f.Op(wasm.OpI64Add).LocalSet(acc)
		}
		f.LocalGet(acc).End()
	}
	return b.Encode()
}

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// a quarter of all Puts on purpose and the allocation ceiling below
// cannot hold.
var raceEnabled bool

// TestCompileAllocationBudget pins the setup path's allocation count:
// decode + validate + analyse + compile of a 24-function compile-wide
// module under wizeng-spc costs a fixed handful of allocations per
// function (the FuncInfo's and the Code's exact-size slices), not some
// per instruction or per block. A change that reintroduces growth by
// append, a per-block snapshot or a per-function scratch structure
// lands well above the ceiling.
func TestCompileAllocationBudget(t *testing.T) {
	const funcs = 24
	module := wideModule(funcs)
	cfg := engines.WizardSPC()
	cfg.CompileWorkers = 1
	e := engine.New(cfg, nil)
	var cm *engine.CompiledModule
	compile := func() {
		var err error
		if cm, err = e.Compile(module); err != nil {
			t.Fatal(err)
		}
	}
	compile() // fills the validator / assembler / compiler pools
	perFunc := testing.AllocsPerRun(5, compile) / funcs
	t.Logf("%.1f allocations per function", perFunc)
	const ceiling = 11 // measured 8.6 (260.6 before scratch was reused)
	if perFunc > ceiling && !raceEnabled {
		t.Errorf("setup allocates %.1f times per function, ceiling %d", perFunc, ceiling)
	}
	for i, c := range cm.Codes {
		code := c.(*mach.Code)
		if cap(code.Instrs) != len(code.Instrs) || cap(code.WasmPC) != len(code.WasmPC) {
			t.Errorf("func %d: code keeps spare capacity (Instrs %d/%d, WasmPC %d/%d)", i,
				len(code.Instrs), cap(code.Instrs), len(code.WasmPC), cap(code.WasmPC))
		}
	}
}

// BenchmarkColdCompile times one serial, uncached Engine.Compile of the
// 512-function compile-wide shape under wizeng-spc: the compile half of
// the benchmark's cold_request_ms, without the rest of the benchmark.
func BenchmarkColdCompile(b *testing.B) {
	module := wideModule(512)
	cfg := engines.WizardSPC()
	cfg.CompileWorkers = 1
	e := engine.New(cfg, nil)
	b.SetBytes(int64(len(module)))
	for i := 0; i < b.N; i++ {
		if _, err := e.Compile(module); err != nil {
			b.Fatal(err)
		}
	}
}
