package workloads_test

import (
	"reflect"
	"testing"

	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

func TestSuiteSizes(t *testing.T) {
	if n := len(workloads.PolyBench()); n != 28 {
		t.Errorf("polybench has %d items, want 28", n)
	}
	if n := len(workloads.Libsodium()); n != 39 {
		t.Errorf("libsodium has %d items, want 39", n)
	}
	if n := len(workloads.Ostrich()); n != 11 {
		t.Errorf("ostrich has %d items, want 11", n)
	}
	if n := len(workloads.All()); n != 78 {
		t.Errorf("total %d items, want 78", n)
	}
}

func TestAllItemsValidate(t *testing.T) {
	for _, it := range workloads.All() {
		for variant, bytes := range map[string][]byte{"full": it.Bytes, "m0": it.BytesM0} {
			m, err := wasm.Decode(bytes)
			if err != nil {
				t.Fatalf("%s/%s (%s): decode: %v", it.Suite, it.Name, variant, err)
			}
			if _, err := validate.Module(m); err != nil {
				t.Fatalf("%s/%s (%s): validate: %v", it.Suite, it.Name, variant, err)
			}
		}
	}
}

func TestMnopValidates(t *testing.T) {
	m, err := wasm.Decode(workloads.Mnop())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := validate.Module(m); err != nil {
		t.Fatal(err)
	}
	if m.Size == 0 {
		t.Fatal("Mnop has zero size")
	}
}

// TestSelect: one selection rule for every tool, and a name that is not
// a suite is an error rather than an empty (vacuously passing) selection.
func TestSelect(t *testing.T) {
	count := func(items []workloads.Item) map[string]int {
		n := map[string]int{}
		for _, it := range items {
			n[it.Suite]++
		}
		return n
	}
	for _, tc := range []struct {
		suite    string
		perSuite int
		want     map[string]int
	}{
		{"", 0, map[string]int{"polybench": 28, "libsodium": 39, "ostrich": 11}},
		{"all", 0, map[string]int{"polybench": 28, "libsodium": 39, "ostrich": 11}},
		{"all", 2, map[string]int{"polybench": 2, "libsodium": 2, "ostrich": 2}},
		{"polybench", 0, map[string]int{"polybench": 28}},
		{"libsodium", 3, map[string]int{"libsodium": 3}},
		{"ostrich", 50, map[string]int{"ostrich": 11}},
	} {
		items, err := workloads.Select(tc.suite, tc.perSuite)
		if err != nil {
			t.Errorf("Select(%q, %d): %v", tc.suite, tc.perSuite, err)
			continue
		}
		if got := count(items); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Select(%q, %d) = %v, want %v", tc.suite, tc.perSuite, got, tc.want)
		}
	}
	if items, _ := workloads.Select("polybench", 2); items[0].Name != "gemm" || items[1].Name != workloads.PolyBench()[1].Name {
		t.Errorf("Select keeps the first items of a suite in order, got %s, %s", items[0].Name, items[1].Name)
	}
	for _, bad := range []struct {
		suite    string
		perSuite int
	}{{"polybnech", 0}, {"Polybench", 0}, {"polybench", -1}} {
		if items, err := workloads.Select(bad.suite, bad.perSuite); err == nil {
			t.Errorf("Select(%q, %d) = %d items, want an error", bad.suite, bad.perSuite, len(items))
		}
	}
}
