package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// mutatorModule builds a module that dirties every class of instance
// state a pool reset must undo: scattered linear-memory stores (three
// distinct granules plus a memory.fill), a data segment that the
// stores overwrite, and a mutable global. It also carries a table with
// an element segment so table re-seeding is exercised.
func mutatorModule() []byte {
	b := wasm.NewBuilder()
	b.AddMemory(4, 4) // 256 KiB = 64 reset granules
	b.AddData(16, []byte("baseline-data-segment"))
	b.AddData(0x20000, []byte{1, 2, 3, 4})
	g := b.AddGlobal(wasm.I64, true, wasm.ValI64(7))

	id := b.NewFunc("id", wasm.FuncType{
		Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I32}})
	id.LocalGet(0)
	id.End()
	b.Export("id", id.Idx)

	b.AddTable(2)
	b.AddElem(0, []uint32{id.Idx, id.Idx})

	f := b.NewFunc("mutate", wasm.FuncType{Results: []wasm.ValueType{wasm.I64}})
	// Overwrite the data segment region.
	f.I32Const(16).I64Const(-1).Store(wasm.OpI64Store, 0)
	// Scattered stores in two more granules.
	f.I32Const(0x8000).F64Const(3.25).Store(wasm.OpF64Store, 0)
	f.I32Const(0x20000).I32Const(0x5A5A5A5A).Store(wasm.OpI32Store, 4)
	// A memory.fill burst.
	f.I32Const(0x30000).I32Const(0xCC).I32Const(64).MemoryFill()
	// Mutate the global.
	f.GlobalGet(g).I64Const(3).Op(wasm.OpI64Mul).GlobalSet(g)
	// Result folds mutated state so runs are comparable.
	f.GlobalGet(g)
	f.I32Const(16).Load(wasm.OpI64Load, 0)
	f.Op(wasm.OpI64Add)
	f.I32Const(0x30000).Load(wasm.OpI64Load, 0)
	f.Op(wasm.OpI64Add)
	f.End()
	b.Export("mutate", f.Idx)
	return b.Encode()
}

// stateEqual compares the observable state of two instances: memory
// bytes, globals (bits and tags), and table contents.
func stateEqual(t *testing.T, label string, a, b *engine.Instance) {
	t.Helper()
	if !bytes.Equal(a.RT.Memory.Data, b.RT.Memory.Data) {
		for i := range a.RT.Memory.Data {
			if a.RT.Memory.Data[i] != b.RT.Memory.Data[i] {
				t.Fatalf("%s: memory differs at %#x: %#x != %#x",
					label, i, a.RT.Memory.Data[i], b.RT.Memory.Data[i])
			}
		}
		t.Fatalf("%s: memory lengths differ: %d != %d",
			label, len(a.RT.Memory.Data), len(b.RT.Memory.Data))
	}
	for i := range a.RT.Globals {
		if *a.RT.Globals[i] != *b.RT.Globals[i] {
			t.Fatalf("%s: global %d differs: %+v != %+v",
				label, i, *a.RT.Globals[i], *b.RT.Globals[i])
		}
	}
	for ti := range a.RT.Tables {
		for ei := range a.RT.Tables[ti].Elems {
			if a.RT.Tables[ti].Elems[ei] != b.RT.Tables[ti].Elems[ei] {
				t.Fatalf("%s: table %d elem %d differs", label, ti, ei)
			}
		}
	}
}

// TestPooledResetObservationallyIdentical is the pool's correctness
// contract: after a mutating run and a reset, a recycled instance must
// be indistinguishable from a freshly instantiated one — memory,
// globals, tables, and the results of the next run.
func TestPooledResetObservationallyIdentical(t *testing.T) {
	module := mutatorModule()
	for _, cfg := range []engine.Config{
		engines.WizardINT(), engines.WizardSPC(),
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			e := engine.New(cfg, nil)
			cm, err := e.Compile(module)
			if err != nil {
				t.Fatal(err)
			}
			pool := cm.NewPool(2)
			defer pool.Close()

			inst, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			first, err := inst.Call("mutate")
			if err != nil {
				t.Fatal(err)
			}
			// Host-side table poke so restore (not just never-mutated) is
			// what the comparison proves.
			inst.RT.Tables[0].Elems[1] = 0
			pool.Put(inst)

			recycled, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			if recycled != inst {
				t.Fatal("pool did not recycle the released instance")
			}
			fresh, err := cm.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			stateEqual(t, "after reset", recycled, fresh)

			// And the next run must behave exactly like a fresh one.
			again, err := recycled.Call("mutate")
			if err != nil {
				t.Fatal(err)
			}
			if again[0].Bits != first[0].Bits {
				t.Fatalf("re-run result %#x != first run %#x", again[0].Bits, first[0].Bits)
			}
			freshRes, err := fresh.Call("mutate")
			if err != nil {
				t.Fatal(err)
			}
			stateEqual(t, "after second run", recycled, fresh)
			if freshRes[0].Bits != again[0].Bits {
				t.Fatalf("fresh result %#x != recycled result %#x", freshRes[0].Bits, again[0].Bits)
			}
		})
	}
}

// TestPooledResetIsSparse verifies the copy-on-write property the pool
// exists for: a run that touches a few granules must not trigger a
// full-memory restore.
func TestPooledResetIsSparse(t *testing.T) {
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(mutatorModule())
	if err != nil {
		t.Fatal(err)
	}
	pool := cm.NewPool(1)
	defer pool.Close()
	inst, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if !inst.RT.Memory.WriteTracking() {
		t.Fatal("pooled instance is not write-tracking")
	}
	if _, err := inst.Call("mutate"); err != nil {
		t.Fatal(err)
	}
	// mutate touches 4 granules (16, 0x8000, 0x20004, 0x30000) out of
	// 64 — well under the full-wipe threshold, so the recycle below
	// takes the sparse path by construction.
	if dirty := inst.RT.Memory.DirtyGranules(); dirty != 4 {
		t.Fatalf("dirty granules = %d, want 4", dirty)
	}
	pool.Put(inst)
	recycled, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if recycled.RT.Memory.DirtyGranules() != 0 || recycled.RT.Memory.Grown() {
		t.Error("reset did not leave tracking clean")
	}
}

// TestPoolGemmChecksums drives a real workload through the pool: every
// pooled request must produce the identical checksum a fresh instance
// produces, across enough iterations to exercise the reset path
// repeatedly.
func TestPoolGemmChecksums(t *testing.T) {
	item := workloads.PolyBench()[0] // gemm
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Call("_start"); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Call("checksum")
	if err != nil {
		t.Fatal(err)
	}

	pool := cm.NewPool(2)
	defer pool.Close()
	for i := 0; i < 5; i++ {
		inst, err := pool.Get()
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
		if got[0].Bits != want[0].Bits {
			t.Fatalf("pooled run %d checksum %#x != fresh %#x", i, got[0].Bits, want[0].Bits)
		}
		pool.Put(inst)
	}
	st := pool.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("stats = %+v, want 1 miss / 4 hits", st)
	}
}

// TestPoolConcurrentServing hammers one pool from many workers (run
// with -race in CI): checksums must agree and stats must balance.
func TestPoolConcurrentServing(t *testing.T) {
	item := workloads.Ostrich()[3] // crc, fast enough for -race
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	pool := cm.NewPool(4)
	defer pool.Close()

	const workers, perWorker = 8, 6
	sums := make([]uint64, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				inst, err := pool.Get()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := inst.Call("_start"); err != nil {
					t.Error(err)
					return
				}
				sum, err := inst.Call("checksum")
				if err != nil {
					t.Error(err)
					return
				}
				sums[w*perWorker+i] = sum[0].Bits
				pool.Put(inst)
			}
		}(w)
	}
	wg.Wait()
	for i, s := range sums {
		if s != sums[0] {
			t.Fatalf("request %d checksum %#x != %#x", i, s, sums[0])
		}
	}
	st := pool.Stats()
	if st.Gets != workers*perWorker || st.Hits+st.Misses != st.Gets {
		t.Errorf("unbalanced stats: %+v", st)
	}
}

// TestResetRejectsInFlightCall: a reset must refuse an instance that is
// mid-call (a host function observes exactly that state).
func TestResetRejectsInFlightCall(t *testing.T) {
	linker := engine.NewLinker()
	var target *engine.Instance
	var resetErr error
	linker.Func("env", "poke", wasm.FuncType{}, func(ctx *rt.Context, args, results []uint64) error {
		resetErr = target.Reset(target.Snapshot())
		return nil
	})

	b := wasm.NewBuilder()
	imp := b.ImportFunc("env", "poke", wasm.FuncType{})
	f := b.NewFunc("go", wasm.FuncType{})
	f.Call(imp)
	f.End()
	b.Export("go", f.Idx)

	e := engine.New(engines.WizardINT(), linker)
	inst, err := e.Instantiate(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	target = inst
	if _, err := inst.Call("go"); err != nil {
		t.Fatal(err)
	}
	if resetErr == nil {
		t.Fatal("Reset accepted an instance with a call in progress")
	}
}

// TestDoubleReleaseDoesNotDuplicateStacks is the regression test for
// the double-release guard: without it, releasing twice pushes the same
// value stack into the engine pool twice, and two later instances
// share one stack.
func TestDoubleReleaseDoesNotDuplicateStacks(t *testing.T) {
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(counterModule())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	stack := inst.Ctx.Stack
	inst.Release()
	inst.Ctx.Stack = stack // simulate a stale caller holding on
	inst.Release()         // must be latched, not re-pooled

	a, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	if a.Ctx.Stack == b.Ctx.Stack {
		t.Fatal("double release leaked one stack into two instances")
	}
}

// TestConcurrentReleaseRace releases the same instance from many
// goroutines; under -race this flags any unsynchronized double put.
func TestConcurrentReleaseRace(t *testing.T) {
	e := engine.New(engines.WizardSPC(), nil)
	cm, err := e.Compile(counterModule())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		inst, err := cm.Instantiate()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				inst.Release()
			}()
		}
		wg.Wait()
	}
}

// TestPooledHostWriteIsReset: host functions write linear memory
// without passing the executors' Mark hooks; the engine declares the
// memory dirty around host calls (rt.Memory.MarkAll), so a pooled
// reset must still restore host-written bytes.
func TestPooledHostWriteIsReset(t *testing.T) {
	linker := engine.NewLinker()
	linker.Func("env", "scribble", wasm.FuncType{}, func(ctx *rt.Context, args, results []uint64) error {
		ctx.Inst.Memory.Data[0x1234] = 0xAB
		return nil
	})
	b := wasm.NewBuilder()
	imp := b.ImportFunc("env", "scribble", wasm.FuncType{})
	b.AddMemory(1, 1)
	f := b.NewFunc("go", wasm.FuncType{})
	f.Call(imp)
	f.End()
	b.Export("go", f.Idx)

	e := engine.New(engines.WizardSPC(), linker)
	cm, err := e.Compile(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	pool := cm.NewPool(1)
	defer pool.Close()
	inst, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("go"); err != nil {
		t.Fatal(err)
	}
	if inst.RT.Memory.Data[0x1234] != 0xAB {
		t.Fatal("host write did not land")
	}
	pool.Put(inst)
	recycled, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if recycled.RT.Memory.Data[0x1234] != 0 {
		t.Fatal("host-written byte leaked across a pooled reset")
	}
}

// TestPoolDiscardDoesNotReleaseBusyInstance: a Get that finds a
// mid-call instance in the pool (a misuse: someone Put it from inside
// a host call) must fail its reset and drop the instance WITHOUT
// pooling its value stack — the call is still executing on it.
func TestPoolDiscardDoesNotReleaseBusyInstance(t *testing.T) {
	var pool *engine.InstancePool
	var self *engine.Instance
	var fresh *engine.Instance
	linker := engine.NewLinker()
	linker.Func("env", "misuse", wasm.FuncType{}, func(ctx *rt.Context, args, results []uint64) error {
		pool.Put(self) // Put while this very call is in progress
		inst, err := pool.Get()
		if err != nil {
			return err
		}
		fresh = inst
		return nil
	})
	b := wasm.NewBuilder()
	imp := b.ImportFunc("env", "misuse", wasm.FuncType{})
	b.AddMemory(1, 1)
	f := b.NewFunc("go", wasm.FuncType{})
	f.Call(imp)
	f.End()
	b.Export("go", f.Idx)

	e := engine.New(engines.WizardSPC(), linker)
	cm, err := e.Compile(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	pool = cm.NewPool(2)
	defer pool.Close()
	self, err = pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := self.Call("go"); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.ResetFailures != 1 {
		t.Fatalf("reset failures = %d, want 1 (mid-call reset must fail)", st.ResetFailures)
	}
	if self.Ctx.Stack == nil {
		t.Fatal("busy instance's stack was released")
	}
	if fresh == self || fresh.Ctx.Stack == self.Ctx.Stack {
		t.Fatal("mid-call instance (or its stack) was handed back out")
	}
}

// readWriteModule builds a module with a provably read-only export
// ("reader" only loads) and a writing export ("writer" stores).
func readWriteModule() []byte {
	b := wasm.NewBuilder()
	b.AddMemory(1, 1)
	b.AddData(0, []byte{42})

	reader := b.NewFunc("reader", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
	reader.I32Const(0).Load(wasm.OpI32Load8U, 0)
	reader.End()
	b.Export("reader", reader.Idx)

	writer := b.NewFunc("writer", wasm.FuncType{})
	writer.I32Const(0).I32Const(99).Store(wasm.OpI32Store8, 0)
	writer.End()
	b.Export("writer", writer.Idx)
	return b.Encode()
}

// TestResetSkipsMemoryForReadOnlyCalls: calls the analysis proves
// read-only never set MemTouched, so a pooled reset skips the memory
// restore; a writing call forces the restore and the baseline comes
// back intact.
func TestResetSkipsMemoryForReadOnlyCalls(t *testing.T) {
	inst, err := engine.New(engines.WizardSPC(), nil).Instantiate(readWriteModule())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Release()
	snap := inst.Snapshot()
	inst.RT.Memory.EnableWriteTracking()
	inst.RT.MemTouched = false // discharge instantiate-time conservatism

	if _, err := inst.Call("reader"); err != nil {
		t.Fatal(err)
	}
	if inst.RT.MemTouched {
		t.Error("read-only call set MemTouched; pool resets will never be skipped")
	}
	if err := inst.Reset(snap); err != nil {
		t.Fatal(err)
	}

	if _, err := inst.Call("writer"); err != nil {
		t.Fatal(err)
	}
	if !inst.RT.MemTouched {
		t.Error("writing call did not set MemTouched; reset would leak state")
	}
	if inst.RT.Memory.Data[0] != 99 {
		t.Fatalf("writer did not write: %d", inst.RT.Memory.Data[0])
	}
	if err := inst.Reset(snap); err != nil {
		t.Fatal(err)
	}
	if inst.RT.Memory.Data[0] != 42 {
		t.Fatalf("reset did not restore the data segment: %d", inst.RT.Memory.Data[0])
	}
	if inst.RT.MemTouched {
		t.Error("reset did not clear MemTouched")
	}

	// The proof lives in FuncInfo.ReadOnly and nowhere else: a function
	// whose info carries the zero value, or that has no info at all, is
	// never treated as read-only.
	reader := inst.RT.Funcs[0]
	proven := reader.Info
	unproven := *proven
	unproven.ReadOnly = false
	for name, info := range map[string]*validate.FuncInfo{"zero-value ReadOnly": &unproven, "no FuncInfo": nil} {
		reader.Info = info
		inst.RT.MemTouched = false
		if _, err := inst.Call("reader"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !inst.RT.MemTouched {
			t.Errorf("%s: call skipped MemTouched; nothing proves the reader read-only there", name)
		}
	}
	reader.Info = proven
}

// poisonModule imports env.maybe (panics when its argument is nonzero)
// and exports poke(x) = call maybe(x), plus a healthy seven() = 7.
func poisonModule() []byte {
	b := wasm.NewBuilder()
	maybe := b.ImportFunc("env", "maybe", wasm.FuncType{Params: []wasm.ValueType{wasm.I32}})
	poke := b.NewFunc("poke", wasm.FuncType{Params: []wasm.ValueType{wasm.I32}})
	poke.LocalGet(0).Call(maybe).End()
	b.Export("poke", poke.Idx)
	seven := b.NewFunc("seven", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
	seven.I32Const(7).End()
	b.Export("seven", seven.Idx)
	return b.Encode()
}

func poisonLinker() *engine.Linker {
	return engine.NewLinker().Func("env", "maybe",
		wasm.FuncType{Params: []wasm.ValueType{wasm.I32}},
		func(_ *rt.Context, args, _ []uint64) error {
			if args[0] != 0 {
				panic("maybe: poisoned request")
			}
			return nil
		})
}

// TestPoolPoisonedInstanceDropped asserts the host-panic containment
// chain end to end in every cataloged executor: the panic surfaces as
// TrapHostPanic, the instance is poisoned, and the pool drops it on Put
// (counting the drop) instead of ever handing it out again.
func TestPoolPoisonedInstanceDropped(t *testing.T) {
	for _, cfg := range engines.Catalog() {
		t.Run(cfg.Name, func(t *testing.T) {
			eng := engine.New(cfg, poisonLinker())
			cm, err := eng.Compile(poisonModule())
			if err != nil {
				t.Fatal(err)
			}
			pool := cm.NewPool(4)
			defer pool.Close()

			inst, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			_, err = inst.Call("poke", wasm.ValI32(1))
			var trap *rt.Trap
			if !errors.As(err, &trap) || trap.Kind != rt.TrapHostPanic {
				t.Fatalf("host panic: got %v, want TrapHostPanic", err)
			}
			if !inst.RT.Poisoned {
				t.Fatal("host panic did not poison the instance")
			}
			pool.Put(inst)

			// The drop happens on the background reset; wait for it.
			deadline := time.Now().Add(5 * time.Second)
			for pool.Stats().PoisonDrops == 0 {
				if time.Now().After(deadline) {
					t.Fatal("poisoned instance was never dropped")
				}
				time.Sleep(time.Millisecond)
			}

			// The pool never hands the poisoned instance out again, and
			// keeps serving healthy requests.
			for i := 0; i < 4; i++ {
				got, err := pool.Get()
				if err != nil {
					t.Fatal(err)
				}
				if got == inst {
					t.Fatal("pool handed out a poisoned instance")
				}
				res, err := got.Call("seven")
				if err != nil || res[0].I32() != 7 {
					t.Fatalf("healthy request after poison drop: %v %v", res, err)
				}
				pool.Put(got)
			}
		})
	}
}

// TestPoolPoisonConcurrentServing hammers one pool from many workers
// while a fraction of requests panic their host call, and asserts every
// healthy request still succeeds and every poisoned instance is
// dropped, not recycled. Run under -race this doubles as the data-race
// check on the poison flag's write (trap path) vs reads (reset path,
// discard path).
func TestPoolPoisonConcurrentServing(t *testing.T) {
	eng := engine.New(engines.WizardSPC(), poisonLinker())
	cm, err := eng.Compile(poisonModule())
	if err != nil {
		t.Fatal(err)
	}
	pool := cm.NewPool(4)
	defer pool.Close()

	const (
		nWorkers  = 8
		perWorker = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, nWorkers*perWorker)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				inst, err := pool.Get()
				if err != nil {
					errs <- err
					return
				}
				if i%5 == w%5 {
					// A poisoning request: the panic must surface as a
					// trap, never as a crashed worker.
					_, err := inst.Call("poke", wasm.ValI32(1))
					var trap *rt.Trap
					if !errors.As(err, &trap) || trap.Kind != rt.TrapHostPanic {
						errs <- fmt.Errorf("worker %d: got %v, want TrapHostPanic", w, err)
						return
					}
				} else {
					res, err := inst.Call("seven")
					if err != nil || res[0].I32() != 7 {
						errs <- fmt.Errorf("worker %d: healthy request: %v %v", w, res, err)
						return
					}
					if inst.RT.Poisoned {
						errs <- fmt.Errorf("worker %d: pool handed out a poisoned instance", w)
						return
					}
				}
				pool.Put(inst)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Prove the poison-drop path was taken, with a deterministic final
	// cycle: the concurrent phase may race some poisoned Puts into
	// capacity overflow, which discards without a reset, but with the
	// workers quiet this Put lands in the pool and must be reset-refused.
	inst, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("poke", wasm.ValI32(1)); err == nil {
		t.Fatal("poisoning request unexpectedly succeeded")
	}
	base := pool.Stats().PoisonDrops
	pool.Put(inst)
	deadline := time.Now().Add(5 * time.Second)
	for pool.Stats().PoisonDrops <= base {
		if time.Now().After(deadline) {
			t.Fatalf("poison drops stuck at %d after a poisoned Put", base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPooledInstanceStaysGrown guards the request path: a stack that
// grew serving one request must still be grown when the pool hands the
// instance out again, or every request of that shape pays the growth —
// doublings and copies — inside its own timed call. pooledDeepCallAllocs
// is what the same call allocated at the parent commit, where the stack
// was allocated at its cap up front (the result slice).
func TestPooledInstanceStaysGrown(t *testing.T) {
	const (
		depth                = 3000
		pooledDeepCallAllocs = 1
	)
	b := wasm.NewBuilder()
	emitSum(b, "sum", 20, false)
	cm, err := engine.New(engines.WizardSPC(), nil).Compile(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	pool := cm.NewPool(1)
	defer pool.Close()
	inst, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := inst.RT.FuncByName("sum")
	request := func(inst *engine.Instance) {
		res, err := inst.CallFunc(sum, wasm.ValI64(depth))
		if err != nil || res[0].I64() != triangle(depth) {
			t.Fatalf("sum(%d) = %v, %v", depth, res, err)
		}
	}
	request(inst)
	stack, grown := inst.Ctx.Stack, len(inst.Ctx.Stack.Slots)
	if grown == initialStackSlots {
		t.Fatal("the request did not grow the stack; the test exercises nothing")
	}
	pool.Put(inst)
	again, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if again != inst {
		t.Fatal("a pool of one handed out a different instance")
	}
	if again.Ctx.Stack != stack || len(again.Ctx.Stack.Slots) != grown {
		t.Fatalf("Put → Get left a %d-slot stack where the request had grown it to %d",
			len(again.Ctx.Stack.Slots), grown)
	}
	if allocs := testing.AllocsPerRun(5, func() { request(again) }); allocs != pooledDeepCallAllocs {
		t.Errorf("the repeated request allocates %v times, want %d", allocs, pooledDeepCallAllocs)
	}
	if n := len(again.Ctx.Stack.Slots); n != grown {
		t.Errorf("the repeated request took the stack from %d to %d slots", grown, n)
	}
}
