package difftest

import (
	"math/rand"
	"strings"
	"testing"

	"wizgo/internal/codecache"
	"wizgo/internal/faultinject"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// TestGeneratorValidByConstruction: every generated module decodes and
// validates — the generator's core contract.
func TestGeneratorValidByConstruction(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := Generate(seed, GenConfig{})
		m, err := wasm.Decode(g.Bytes)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if _, err := validate.Module(m); err != nil {
			t.Fatalf("seed %d: validate: %v", seed, err)
		}
		if len(g.Calls) == 0 {
			t.Fatalf("seed %d: no calls generated", seed)
		}
	}
}

// TestGeneratorDeterministic: the same seed yields identical bytes and
// calls — reproducers and CI smoke runs depend on it.
func TestGeneratorDeterministic(t *testing.T) {
	for seed := int64(1); seed < 20; seed++ {
		a := Generate(seed, GenConfig{})
		b := Generate(seed, GenConfig{})
		if string(a.Bytes) != string(b.Bytes) {
			t.Fatalf("seed %d: bytes differ between runs", seed)
		}
		if len(a.Calls) != len(b.Calls) {
			t.Fatalf("seed %d: call count differs", seed)
		}
	}
}

// TestCrossExecutionAgrees is the tentpole assertion: N seeds of
// generated modules produce identical canonical outcomes across every
// matrix configuration, fresh and after a reset.
func TestCrossExecutionAgrees(t *testing.T) {
	o := NewOracle()
	n := int64(60)
	if testing.Short() {
		n = 15
	}
	for seed := int64(0); seed < n; seed++ {
		g := Generate(seed, GenConfig{})
		outs, d := o.Run(g)
		if d != nil {
			t.Fatalf("%v\n%s", d, OutcomeTable(outs))
		}
	}
}

// TestDiskLegReportsUnservedArtifact: the disk leg is only worth its
// cost if a broken round trip surfaces as a Divergence the minimizer can
// shrink. Bit rot injected under the second engine's load makes it
// recompile instead of rehydrating; the oracle must say so, naming the
// configuration against itself "from disk".
func TestDiskLegReportsUnservedArtifact(t *testing.T) {
	o := NewOracle()
	g := Generate(3, GenConfig{})
	if outs, d := o.Run(g); d != nil {
		t.Fatalf("clean run diverged: %v\n%s", d, OutcomeTable(outs))
	}
	defer faultinject.Arm(codecache.PointDiskChecksum, faultinject.Fault{})()
	outs, d := o.Run(g)
	if d == nil {
		t.Fatal("a corrupted artifact went unreported")
	}
	first := o.Configs()[0]
	if d.ConfigA != first || d.ConfigB != first+" from disk" || !strings.Contains(d.Detail, "not served from the artifact") {
		t.Errorf("divergence %s vs %s: %s", d.ConfigA, d.ConfigB, d.Detail)
	}
	if last := outs[len(outs)-1]; last.Config != d.ConfigB {
		t.Errorf("outcome table ends with %q, want the disk leg's row", last.Config)
	}
}

// TestInvalidModulesAgree: mutated (usually invalid) modules are
// accepted or rejected identically by every configuration, and nothing
// panics. Mutants that stay valid flow through the full oracle.
func TestInvalidModulesAgree(t *testing.T) {
	o := NewOracle()
	n := int64(40)
	if testing.Short() {
		n = 10
	}
	for seed := int64(0); seed < n; seed++ {
		base := Generate(seed, GenConfig{})
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 4; i++ {
			mut := MutateInvalid(r, base.Bytes)
			g := Generated{Seed: seed, Bytes: mut, Calls: DeriveCalls(mut)}
			outs, d := o.Run(g)
			if d != nil {
				t.Fatalf("%v\n%s", d, OutcomeTable(outs))
			}
		}
	}
}
