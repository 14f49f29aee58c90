package engine_test

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"wizgo/internal/difftest"
	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// fusedEngines are eager configurations, one per compiler that drives
// the validator's walk: every Tier validates as it compiles.
func fusedEngines() []*engine.Engine {
	var es []*engine.Engine
	for _, cfg := range []engine.Config{engines.WizardSPC(), engines.WasmNowLike(), engines.WazeroLike(),
		engines.TurboFanLike(), engines.Wasm3Like()} {
		cfg.CompileWorkers = 1
		es = append(es, engine.New(cfg, nil))
	}
	return es
}

// sameRejection reports whether two Compile errors are the same
// rejection: equal *validate.Error fields, or the same message for
// errors raised outside the validator's checks (a truncated immediate),
// or both nil.
func sameRejection(a, b error) bool {
	var va, vb *validate.Error
	if errors.As(a, &va) != errors.As(b, &vb) {
		return false
	}
	if va != nil {
		return *va == *vb
	}
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkAgainstValidator compiles bytes under e and holds the outcome
// against validate.Module: the same rejection, or, for a valid module,
// the same FuncInfo for every function. It reports whether the module
// was rejected; modules that do not decode are skipped.
func checkAgainstValidator(t *testing.T, e *engine.Engine, name string, bytes []byte) bool {
	t.Helper()
	m, err := wasm.Decode(bytes)
	if err != nil {
		return false
	}
	want, wantErr := validate.Module(m)
	cm, err := e.Compile(bytes)
	if !sameRejection(wantErr, err) {
		t.Fatalf("%s under %s: validate.Module says %v, the fused walk %v", name, e.Config().Name, wantErr, err)
	}
	if err != nil {
		return true
	}
	for i := range want {
		got := cm.Infos[i]
		got.ReadOnly = false // set by the analysis after the walk
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s under %s: func %d info differs:\nfused %+v\nvalidate.Module %+v",
				name, e.Config().Name, i, got, want[i])
		}
	}
	return false
}

// TestFusedWalkMatchesValidator: a compiler driving the validator's walk
// must reject exactly what validate.Module rejects, with the same error,
// and produce the same FuncInfos for what it accepts — over the suite,
// the compile-wide shape and mutated generator output.
func TestFusedWalkMatchesValidator(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 200
	}
	es := fusedEngines()
	for _, it := range workloads.All() {
		for _, e := range es {
			if checkAgainstValidator(t, e, it.Suite+"/"+it.Name, it.Bytes) {
				t.Fatalf("%s/%s rejected", it.Suite, it.Name)
			}
		}
	}
	for _, e := range es {
		if checkAgainstValidator(t, e, "compile-wide", wideModule(24)) {
			t.Fatal("compile-wide rejected")
		}
	}
	// The mutations almost never break a module-level rule; these do.
	for name, build := range map[string]func(b *wasm.Builder){
		"export past the function space": func(b *wasm.Builder) { b.Export("x", 9) },
		"start function with a result":   func(b *wasm.Builder) { b.SetStart(0) },
	} {
		b := wasm.NewBuilder()
		b.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}}).I32Const(0).End()
		build(b)
		for _, e := range es {
			if !checkAgainstValidator(t, e, name, b.Encode()) {
				t.Errorf("%s under %s: accepted", name, e.Config().Name)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	rejected := 0
	for s := 0; s < seeds; s++ {
		mut := difftest.MutateInvalid(rng, difftest.Generate(int64(s), difftest.GenConfig{}).Bytes)
		for i, e := range es {
			if checkAgainstValidator(t, e, "mutated seed", mut) && i == 0 {
				rejected++
			}
		}
	}
	t.Logf("%d of %d mutated modules rejected", rejected, seeds)
	if rejected < seeds/10 {
		t.Errorf("only %d of %d mutated modules were rejected: the mutations no longer reach the validator", rejected, seeds)
	}
}

// TestFusedWalkRejectsHostileBodies: bodies that break the walk midway
// — truncated inside a block, a block type past the type section, a
// br_table whose count runs past the end — come back as errors from
// every fused compiler, never as a panic or as code.
func TestFusedWalkRejectsHostileBodies(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"truncated inside a block", []byte{0x02, 0x40, 0x01}},
		{"block type index out of range", []byte{0x02, 0x05, 0x0B, 0x0B}},
		{"br_table past the end", []byte{0x41, 0x00, 0x0E, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00}},
		{"br_table targets truncated", []byte{0x02, 0x40, 0x41, 0x00, 0x0E, 0x02, 0x00}},
	} {
		b := wasm.NewBuilder()
		b.NewFunc("f", wasm.FuncType{}).End()
		m := b.Module()
		m.Funcs[0].Body = tc.body
		module := wasm.Encode(m)
		for _, e := range fusedEngines() {
			if !checkAgainstValidator(t, e, tc.name, module) {
				t.Errorf("%s under %s: accepted", tc.name, e.Config().Name)
			}
		}
	}
}

// nopProbe does nothing; attaching it is what forces the recompile.
type nopProbe struct{}

func (nopProbe) Fire(*rt.Accessor) {}

// cloneInfos deep-copies a module's FuncInfos.
func cloneInfos(infos []validate.FuncInfo) []validate.FuncInfo {
	out := slices.Clone(infos)
	for i := range out {
		fi := &out[i]
		fi.Sidetable, fi.Owners, fi.Callees = slices.Clone(fi.Sidetable), slices.Clone(fi.Owners), slices.Clone(fi.Callees)
		fi.LocalTypes, fi.Results = slices.Clone(fi.LocalTypes), slices.Clone(fi.Results)
	}
	return out
}

// TestProbeRecompileLeavesSharedInfos: attaching and detaching a probe
// recompiles the function for one instance from the FuncInfo every
// instance of the CompiledModule shares. On every configuration that
// recompile must leave the infos as Compile returned them — ReadOnly
// included, or the pool would start resetting memory the function never
// writes — while a second instance keeps running from them (under
// -race, a recompile that writes them is a reported race).
func TestProbeRecompileLeavesSharedInfos(t *testing.T) {
	b := wasm.NewBuilder()
	sum := emitSum(b, "sum", 2, false)
	bytes := b.Encode()
	const depth = 30
	for _, cfg := range engines.FullMatrix() {
		t.Run(cfg.Name, func(t *testing.T) {
			cm, err := engine.New(cfg, nil).Compile(bytes)
			if err != nil {
				t.Fatal(err)
			}
			want := cloneInfos(cm.Infos)
			if !want[sum.Idx].ReadOnly {
				t.Fatal("sum is not read-only, so a cleared ReadOnly bit would go unseen")
			}
			probed, err := cm.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			other, err := cm.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					res, err := other.Call("sum", wasm.ValI64(depth))
					if err != nil || res[0].I64() != triangle(depth) {
						t.Errorf("unprobed sum(%d) = %v, %v; want %d", depth, res, err, triangle(depth))
						return
					}
				}
			}()
			for i := 0; i < 10; i++ {
				if err := probed.AttachProbe(sum.Idx, 0, nopProbe{}); err != nil {
					t.Fatal(err)
				}
				if got := mustCallI64(t, probed, "sum", depth); got != triangle(depth) {
					t.Errorf("probed sum(%d) = %d, want %d", depth, got, triangle(depth))
				}
				if err := probed.DetachProbes(sum.Idx, 0); err != nil {
					t.Fatal(err)
				}
			}
			close(done)
			wg.Wait()
			if !reflect.DeepEqual(cm.Infos, want) {
				t.Errorf("probe recompiles changed the shared infos:\nafter  %+v\nbefore %+v", cm.Infos, want)
			}
		})
	}
}
