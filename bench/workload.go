package main

import (
	"fmt"
	"math/rand"

	"wizgo/internal/engine"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// module is one generated input: the bytes the engine sees and the value
// its checksum global (global 0, also returned by the checksum export)
// must hold after exactly one _start on a fresh or reset instance. Want
// never comes from an engine at run time: suite items look it up in
// golden.json, generated modules compute it in Go while emitting.
type module struct {
	Name  string
	Bytes []byte
	Want  uint64
	// BridgeCalls is how many calls one _start makes to the imported host
	// function, and EmptyWant what the call-free control _start_empty
	// leaves in the checksum (host-bridge only).
	BridgeCalls int
	EmptyWant   uint64
}

// entryPoint selects which export an exec sample calls: _start, or one
// of the host-bridge controls.
type entryPoint int

const (
	entryStart entryPoint = iota
	entryLocal            // _start_local: the loop calls a wasm-defined bump
	entryEmpty            // _start_empty: the loop calls nothing
	numEntries
)

var entryExports = [numEntries]string{"_start", "_start_local", "_start_empty"}

func (m module) want(e entryPoint) uint64 {
	if e == entryEmpty {
		return m.EmptyWant
	}
	return m.Want
}

// workload is one set of inputs. The counts are fixed per workload (only
// -quick shrinks them) so both sides of a comparison do the same work.
type workload struct {
	Name string
	Why  string
	// Gen builds the modules from the seed; linker is non-nil when they
	// import host functions.
	Gen func(seed int64, quick bool) (mods []module, linker *engine.Linker, err error)
	// SetupReps is set-ups per untraced run (setup_s is their median: a
	// 15 ms set-up needs more of them than a 900 ms one). ColdRounds is
	// cold+disk request samples per module, ExecRounds is exec samples
	// per (engine, module), LayerRounds is traced-pass rounds; -quick
	// shrinks the last three.
	SetupReps, ColdRounds, ExecRounds, LayerRounds int
	// TracedDivisor shrinks the traced warm pass's request count for
	// workloads whose request is slower than a few microseconds.
	TracedDivisor int
	// HasControls marks modules that export _start_local and
	// _start_empty, the controls the host bridge is measured against.
	HasControls bool
}

func allWorkloads() []workload {
	return []workload{
		{
			Name: "kernels",
			Why:  "fixed 2 line items from each of PolyBench/Libsodium/Ostrich, order seeded: execution-bound, the paper's traffic; bypass row for setup-path and pool changes",
			Gen:  genKernels, SetupReps: 7, ColdRounds: 40, ExecRounds: 80, LayerRounds: 12, TracedDivisor: 100,
		},
		{
			Name: "compile-wide",
			Why:  "one 512-function 1.2 MB module: setup-bound; validate, analysis, spc and artifact decoding do the work, execution little",
			Gen:  genCompileWide, SetupReps: 5, ColdRounds: 40, ExecRounds: 120, LayerRounds: 6, TracedDivisor: 4,
		},
		{
			Name: "requests-readonly",
			Why:  "microsecond request that only loads from 64 granules: pool Get/Put and call entry dominate, reset is skipped",
			Gen:  genRequestsReadonly, SetupReps: 41, ColdRounds: 600, ExecRounds: 12000, LayerRounds: 150, TracedDivisor: 1,
		},
		{
			Name: "requests-dirty",
			Why:  "same request but it stores to the 64 granules (25% of memory): the copy-on-write reset dominates the request",
			Gen:  genRequestsDirty, SetupReps: 41, ColdRounds: 600, ExecRounds: 12000, LayerRounds: 150, TracedDivisor: 1,
		},
		{
			Name: "host-bridge",
			Why:  "50000 calls to an imported host function per request: the invoke-to-callHost bridge does the work; bypass row for compile and pool changes",
			Gen:  genHostBridge, SetupReps: 31, ColdRounds: 100, ExecRounds: 160, LayerRounds: 12, TracedDivisor: 100,
			HasControls: true,
		},
	}
}

// kernelsDrawSeed fixes which line items the kernels workload holds.
// The items are a seeded random draw of 2 from each suite, but the draw
// is pinned: run time differs 100x between items, so a draw that moved
// with -seed would make runs at different seeds incomparable. -seed
// permutes the order the items are compiled and measured in instead.
const kernelsDrawSeed = 1

func genKernels(seed int64, quick bool) ([]module, *engine.Linker, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, nil, err
	}
	draw := rand.New(rand.NewSource(kernelsDrawSeed))
	var mods []module
	for _, suite := range [][]workloads.Item{workloads.PolyBench(), workloads.Libsodium(), workloads.Ostrich()} {
		perSuite := 2
		if quick {
			perSuite = 1
		}
		for _, i := range draw.Perm(len(suite))[:perSuite] {
			it := suite[i]
			name := it.Suite + "/" + it.Name
			want, ok := golden[name]
			if !ok {
				return nil, nil, fmt.Errorf("bench: %s has no golden checksum", name)
			}
			mods = append(mods, module{Name: name, Bytes: it.Bytes, Want: uint64(want)})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })
	return mods, nil, nil
}

// const41 draws a 41-bit constant with the top bit set, so every seed
// encodes to the same LEB128 length and module size does not move.
func const41(rng *rand.Rand) uint64 { return 1<<40 | uint64(rng.Int63n(1<<40)) }

var i64ToI64 = wasm.FuncType{Params: []wasm.ValueType{wasm.I64}, Results: []wasm.ValueType{wasm.I64}}

// addChecksum gives a generated module the suite modules' interface:
// global 0 accumulates the result and the checksum export returns it.
func addChecksum(b *wasm.Builder, ck uint32) {
	cs := b.NewFunc("checksum", wasm.FuncType{Results: []wasm.ValueType{wasm.I64}})
	cs.GlobalGet(ck).End()
	b.Export("checksum", cs.Idx)
}

const (
	wideFuncs      = 512
	wideFuncsQuick = 24
	wideSteps      = 40
)

// genCompileWide emits the manyFuncModule shape of bench_test.go with
// seed-drawn constants: n functions of real compile weight, and a _start
// that calls each once, folding the results into the checksum.
func genCompileWide(seed int64, quick bool) ([]module, *engine.Linker, error) {
	n := wideFuncs
	if quick {
		n = wideFuncsQuick
	}
	rng := rand.New(rand.NewSource(seed))
	b := wasm.NewBuilder()
	b.AddMemory(1, 1)
	ck := b.AddGlobal(wasm.I64, true, wasm.ValI64(0))
	start := b.NewFunc("_start", wasm.FuncType{})
	fold := const41(rng) | 1
	var want uint64
	for fi := 0; fi < n; fi++ {
		f := b.NewFunc(fmt.Sprintf("work%d", fi), i64ToI64)
		arg := const41(rng) | 1
		acc, tmp := f.AddLocal(wasm.I64), f.AddLocal(wasm.I64)
		var mirror uint64
		for k := 0; k < wideSteps; k++ {
			c := const41(rng)
			f.LocalGet(acc).LocalGet(0).I64Const(int64(c)).Op(wasm.OpI64Mul)
			f.Op(wasm.OpI64Add).LocalSet(acc)
			mirror += arg * c
			f.LocalGet(acc).I64Const(int64(k + 3)).Op(wasm.OpI64Shl).LocalSet(tmp)
			f.LocalGet(acc).LocalGet(tmp).Op(wasm.OpI64Xor).LocalSet(acc)
			mirror ^= mirror << (k + 3)
			f.LocalGet(acc).I64Const(1).Op(wasm.OpI64And).Op(wasm.OpI64Eqz)
			f.If(wasm.BlockEmpty)
			f.LocalGet(acc).I64Const(int64(k)).Op(wasm.OpI64Add).LocalSet(acc)
			f.End()
			if mirror&1 == 0 {
				mirror += uint64(k)
			}
			// The load reads back the value just stored at the same address.
			f.I32Const(int32(k%64)).LocalGet(acc).Store(wasm.OpI64Store, 0)
			f.I32Const(int32(k%64)).Load(wasm.OpI64Load, 0).LocalGet(acc)
			f.Op(wasm.OpI64Add).LocalSet(acc)
			mirror += mirror
		}
		f.LocalGet(acc).End()

		start.GlobalGet(ck).I64Const(int64(fold)).Op(wasm.OpI64Mul)
		start.I64Const(int64(arg)).Call(f.Idx).Op(wasm.OpI64Add).GlobalSet(ck)
		want = want*fold + mirror
	}
	start.End()
	b.Export("_start", start.Idx)
	addChecksum(b, ck)
	return []module{{Name: "compile-wide", Bytes: b.Encode(), Want: want}}, nil, nil
}

const (
	requestPages    = 16 // 1 MiB
	requestGranules = 64 // of 256: 25%, under the pool's 50% full-wipe cutoff
)

// genRequests emits the request-overhead module: 1 MiB of memory, 64
// seed-chosen 4 KiB granules each seeded with 8 bytes by a data segment,
// and a straight-line _start that visits each granule once. Read-only,
// it sums the 64 values. Dirty, it adds a constant to each value in
// place and sums the results — so a reset that failed to restore a
// granule changes the next request's checksum.
func genRequests(name string, seed int64, dirty bool) ([]module, *engine.Linker, error) {
	rng := rand.New(rand.NewSource(seed))
	b := wasm.NewBuilder()
	b.AddMemory(requestPages, requestPages)
	ck := b.AddGlobal(wasm.I64, true, wasm.ValI64(0))
	start := b.NewFunc("_start", wasm.FuncType{})
	sum := start.AddLocal(wasm.I64)
	totalGranules := requestPages * wasm.PageSize / rt.DirtyGranule
	var want uint64
	for _, g := range rng.Perm(totalGranules)[:requestGranules] {
		addr := int32(g*rt.DirtyGranule + 8*rng.Intn(rt.DirtyGranule/8))
		val := rng.Uint64()
		var le [8]byte
		for i := range le {
			le[i] = byte(val >> (8 * i))
		}
		b.AddData(uint32(addr), le[:])
		if dirty {
			add := const41(rng)
			start.I32Const(addr)
			start.I32Const(addr).Load(wasm.OpI64Load, 0).I64Const(int64(add)).Op(wasm.OpI64Add)
			start.Store(wasm.OpI64Store, 0)
			val += add
		}
		start.LocalGet(sum).I32Const(addr).Load(wasm.OpI64Load, 0).Op(wasm.OpI64Add).LocalSet(sum)
		want += val
	}
	start.LocalGet(sum).GlobalSet(ck).End()
	b.Export("_start", start.Idx)
	addChecksum(b, ck)
	return []module{{Name: name, Bytes: b.Encode(), Want: want}}, nil, nil
}

func genRequestsReadonly(seed int64, _ bool) ([]module, *engine.Linker, error) {
	return genRequests("requests-readonly", seed, false)
}

func genRequestsDirty(seed int64, _ bool) ([]module, *engine.Linker, error) {
	return genRequests("requests-dirty", seed, true)
}

const (
	bridgeCalls      = 50000
	bridgeCallsQuick = 2000
)

// genHostBridge emits a module whose _start calls the imported
// env.bump n times, feeding each result into the next call, with two
// controls: _start_local runs the same loop against a wasm-defined bump
// (a wasm-to-wasm call), _start_empty the same loop with the call taken
// out. bump(x) is x*mul+add with seed-drawn constants, in the host, in
// wasm, and in the Go mirror that computes the expected value.
func genHostBridge(seed int64, quick bool) ([]module, *engine.Linker, error) {
	n := bridgeCalls
	if quick {
		n = bridgeCallsQuick
	}
	rng := rand.New(rand.NewSource(seed))
	mul, add, x0 := const41(rng)|1, const41(rng), const41(rng)

	b := wasm.NewBuilder()
	host := b.ImportFunc("env", "bump", i64ToI64)
	ck := b.AddGlobal(wasm.I64, true, wasm.ValI64(0))
	local := b.NewFunc("bump_local", i64ToI64)
	local.LocalGet(0).I64Const(int64(mul)).Op(wasm.OpI64Mul).I64Const(int64(add)).Op(wasm.OpI64Add).End()
	for e, export := range entryExports {
		f := b.NewFunc(export, wasm.FuncType{})
		i, x := f.AddLocal(wasm.I32), f.AddLocal(wasm.I64)
		f.I64Const(int64(x0)).LocalSet(x)
		workloads.ForI32Func(f, i, 0, int32(n), func() {
			f.LocalGet(x)
			switch entryPoint(e) {
			case entryStart:
				f.Call(host)
			case entryLocal:
				f.Call(local.Idx)
			}
			f.LocalSet(x)
		})
		f.LocalGet(x).GlobalSet(ck).End()
		b.Export(export, f.Idx)
	}
	addChecksum(b, ck)

	want := x0
	for i := 0; i < n; i++ {
		want = want*mul + add
	}
	linker := engine.NewLinker()
	err := linker.DefineFunc("env", "bump", i64ToI64, func(_ *rt.Context, args, results []uint64) error {
		results[0] = args[0]*mul + add
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return []module{{Name: "host-bridge", Bytes: b.Encode(), Want: want, BridgeCalls: n, EmptyWant: x0}}, linker, nil
}
