package engines_test

import (
	"testing"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/wasm"
)

// buildMixed returns a module exercising loops, calls, memory, floats,
// br_table and multi-value — a smoke program for every tier.
func buildMixed() []byte {
	b := wasm.NewBuilder()
	b.AddMemory(1, 2)

	ift := wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I32}}
	double := b.NewFunc("double", ift)
	double.LocalGet(0).I32Const(2).Op(wasm.OpI32Mul).End()

	f := b.NewFunc("work", wasm.FuncType{
		Params:  []wasm.ValueType{wasm.I32},
		Results: []wasm.ValueType{wasm.I64},
	})
	i := f.AddLocal(wasm.I32)
	acc := f.AddLocal(wasm.I64)
	facc := f.AddLocal(wasm.F64)
	f.Block(wasm.BlockEmpty)
	f.LocalGet(0).I32Const(0).Op(wasm.OpI32LeS).BrIf(0)
	f.Loop(wasm.BlockEmpty)
	// acc += double(i) + i*i
	f.LocalGet(i).Call(double.Idx)
	f.LocalGet(i).LocalGet(i).Op(wasm.OpI32Mul)
	f.Op(wasm.OpI32Add)
	f.Op(wasm.OpI64ExtendI32S)
	f.LocalGet(acc).Op(wasm.OpI64Add).LocalSet(acc)
	// facc += sqrt(i)
	f.LocalGet(i).Op(wasm.OpF64ConvertI32S).Op(wasm.OpF64Sqrt)
	f.LocalGet(facc).Op(wasm.OpF64Add).LocalSet(facc)
	// memory[i%64536*4..] = i
	f.LocalGet(i).I32Const(16384).Op(wasm.OpI32RemU).I32Const(4).Op(wasm.OpI32Mul)
	f.LocalGet(i).Store(wasm.OpI32Store, 0)
	f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalTee(i)
	f.LocalGet(0).Op(wasm.OpI32LtS).BrIf(0)
	f.End()
	f.End()
	// result = acc + i64(facc) + i64(mem[40])
	f.LocalGet(acc)
	f.LocalGet(facc).Op(wasm.OpI64TruncF64S).Op(wasm.OpI64Add)
	f.I32Const(40).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U).Op(wasm.OpI64Add)
	f.End()
	b.Export("work", f.Idx)
	return b.Encode()
}

// TestAllTiersAgree runs the mixed workload on all 18 SQ-space tiers and
// demands bit-identical results.
func TestAllTiersAgree(t *testing.T) {
	bytes := buildMixed()
	var want int64
	first := true
	for _, cfg := range engines.SQSpaceTiers() {
		inst, err := engine.New(cfg, nil).Instantiate(bytes)
		if err != nil {
			t.Fatalf("%s: instantiate: %v", cfg.Name, err)
		}
		got, err := inst.Call("work", wasm.ValI32(5000))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if first {
			want = got[0].I64()
			first = false
			if want == 0 {
				t.Fatal("workload computed zero; test is vacuous")
			}
			continue
		}
		if got[0].I64() != want {
			t.Errorf("%s: got %d, want %d", cfg.Name, got[0].I64(), want)
		}
	}
}

func TestTierClassCovers(t *testing.T) {
	classes := map[string]int{}
	for _, cfg := range engines.SQSpaceTiers() {
		classes[engines.TierClass(cfg.Name)]++
	}
	if classes["interpreter"] != 4 || classes["baseline"] != 6 || classes["optimizing"] != 8 {
		t.Fatalf("unexpected class sizes: %v", classes)
	}
}

func TestFigure3Rows(t *testing.T) {
	rows := engines.Figure3()
	if len(rows) != 6 {
		t.Fatalf("Figure 3 must list six compilers, got %d", len(rows))
	}
	if rows[0].Name != "wizeng-spc" {
		t.Fatalf("first row should be wizeng-spc, got %s", rows[0].Name)
	}
}

// TestFullMatrix: the suite oracle's matrix is every configuration a
// figure is drawn from, each under its own name.
func TestFullMatrix(t *testing.T) {
	cfgs := engines.FullMatrix()
	if len(cfgs) != 30 {
		t.Fatalf("FullMatrix has %d configurations, want 5 + 6 + 18 + 1", len(cfgs))
	}
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		if seen[cfg.Name] {
			t.Errorf("configuration name %q appears twice", cfg.Name)
		}
		seen[cfg.Name] = true
	}
	for _, want := range []string{"allopt", "nomr", "notags", "lazytags", "wizeng-int", "wavm", "wizeng-tiered"} {
		if !seen[want] {
			t.Errorf("FullMatrix lacks %q", want)
		}
	}
}

// TestTierClassOutsideSQSpace: a configuration outside the 18 SQ-space
// tiers has no class, rather than passing for an optimizing tier.
func TestTierClassOutsideSQSpace(t *testing.T) {
	names := []string{"wizeng-tiered", "nosuch"}
	for _, cfg := range append(engines.Figure4Variants(), engines.Figure5Variants()...) {
		names = append(names, cfg.Name)
	}
	for _, name := range names {
		if class := engines.TierClass(name); class != "" {
			t.Errorf("TierClass(%q) = %q, want none", name, class)
		}
	}
}
