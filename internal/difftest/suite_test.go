package difftest

import (
	"strings"
	"testing"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/interp"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// TestSuiteModules: the suite source yields every line item and its m0
// variant, each exercised by _start then checksum.
func TestSuiteModules(t *testing.T) {
	items := workloads.All()
	mods := SuiteModules(items)
	if len(items) != 78 || len(mods) != 156 {
		t.Fatalf("%d items gave %d modules, want 78 and 156", len(items), len(mods))
	}
	for i, m := range mods {
		it, m0 := items[i/2], i%2 == 1
		want, name := it.Bytes, it.Suite+"/"+it.Name
		if m0 {
			want, name = it.BytesM0, name+" (m0)"
		}
		if m.M0 != m0 || m.Name != name || string(m.Bytes) != string(want) {
			t.Errorf("module %d is %q (m0 %v), want %q (m0 %v) with that variant's bytes", i, m.Name, m.M0, name, m0)
		}
		if len(m.Calls) != 2 || m.Calls[0].Export != "_start" || m.Calls[1].Export != "checksum" ||
			len(m.Calls[0].Args)+len(m.Calls[1].Args) != 0 {
			t.Errorf("%s: calls %+v, want _start then checksum", m.Name, m.Calls)
		}
	}
}

// TestSuiteAgreesAcrossMatrix runs every line item and m0 variant
// through the 6-config matrix — the tiers the repository benchmark
// times, fresh, after a Reset and from a disk artifact — and holds each
// to the suite contract: a full item's checksum is non-zero (a zero one
// is a vacuous workload), an m0 variant's is zero. The 30-config sweep
// is `wizgo-fuzz -suite all`, a CI step.
func TestSuiteAgreesAcrossMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite run is slow")
	}
	o := NewOracle()
	for _, m := range SuiteModules(workloads.All()) {
		if outs, d := o.RunSuite(m); d != nil {
			t.Errorf("%s: %v\n%s", m.Name, d, OutcomeTable(outs))
		}
	}
}

// TestOracleForNamesBothConfigs: a caller-chosen matrix is compared the
// way the default one is. With the interpreter planted wrong (an
// out-of-bounds i32.load yields 0 instead of trapping) each side still
// agrees with itself across both legs, and the cross-configuration
// comparison names the two. Not parallel: the hook is process-global.
func TestOracleForNamesBothConfigs(t *testing.T) {
	interp.TestHookOOBReadsZero = true
	defer func() { interp.TestHookOOBReadsZero = false }()

	b := wasm.NewBuilder()
	b.AddMemory(1, 1)
	f := b.NewFunc("oob", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
	f.I32Const(65536).Load(wasm.OpI32Load, 0).End()
	b.Export("oob", f.Idx)
	g := Generated{Bytes: b.Encode(), Calls: []Call{{Export: "oob"}}}

	o := NewOracleFor([]engine.Config{engines.WizardSPC(), engines.WizardINT()})
	if got := o.Configs(); len(got) != 2 || got[0] != "wizeng-spc" || got[1] != "wizeng-int" {
		t.Fatalf("configs %v", got)
	}
	outs, d := o.Run(g)
	if d == nil {
		t.Fatalf("planted bug went unreported\n%s", OutcomeTable(outs))
	}
	if d.ConfigA != "wizeng-spc" || d.ConfigB != "wizeng-int" || !strings.Contains(d.Detail, "trap") {
		t.Errorf("divergence %s vs %s: %s", d.ConfigA, d.ConfigB, d.Detail)
	}
	if len(d.Outcomes) != 2 {
		t.Errorf("%d outcome rows, want one per configuration", len(d.Outcomes))
	}
}

// suiteShaped builds a module with the suite's two exports around the
// given _start body and checksum value.
func suiteShaped(start func(f *wasm.FuncBuilder), sum int64) []byte {
	b := wasm.NewBuilder()
	f := b.NewFunc("_start", wasm.FuncType{})
	start(f)
	f.End()
	b.Export("_start", f.Idx)
	cs := b.NewFunc("checksum", wasm.FuncType{Results: []wasm.ValueType{wasm.I64}})
	cs.I64Const(sum).End()
	b.Export("checksum", cs.Idx)
	return b.Encode()
}

// TestSuiteInterruptFails: a generated module that crosses the deadline
// is incomparable and Run lets it pass; a suite module that does is a
// failure naming the configuration that hung.
func TestSuiteInterruptFails(t *testing.T) {
	spin := func(f *wasm.FuncBuilder) { f.Loop(wasm.BlockEmpty).Br(0).End() }
	m := SuiteModules([]workloads.Item{{Suite: "test", Name: "spin", Bytes: suiteShaped(spin, 1)}})[0]

	o := NewOracle()
	o.Deadline = 20 * time.Millisecond
	if _, d := o.Run(m.Generated); d != nil {
		t.Fatalf("Run reported an interrupted module: %v", d)
	}
	outs, d := o.RunSuite(m)
	if d == nil {
		t.Fatalf("RunSuite passed a module that never finished\n%s", OutcomeTable(outs))
	}
	if first := o.Configs()[0]; d.ConfigA != first || !strings.Contains(d.Detail, "deadline") {
		t.Errorf("divergence %s vs %s: %s", d.ConfigA, d.ConfigB, d.Detail)
	}
}

// TestSuiteChecksumContract: agreement is not enough. Every
// configuration agrees on these modules, and each still fails: a full
// item whose checksum is zero, an m0 variant whose checksum is not, and
// an item that traps.
func TestSuiteChecksumContract(t *testing.T) {
	nop := func(f *wasm.FuncBuilder) {}
	trap := func(f *wasm.FuncBuilder) { f.Op(wasm.OpUnreachable) }
	o := NewOracle()
	for _, tc := range []struct {
		name   string
		item   workloads.Item
		m0     bool
		detail string // "" = passes
	}{
		{"full, non-zero", workloads.Item{Bytes: suiteShaped(nop, 7)}, false, ""},
		{"m0, zero", workloads.Item{BytesM0: suiteShaped(nop, 0)}, true, ""},
		{"full, zero", workloads.Item{Bytes: suiteShaped(nop, 0)}, false, "checksum"},
		{"m0, non-zero", workloads.Item{BytesM0: suiteShaped(nop, 7)}, true, "checksum"},
		{"traps", workloads.Item{Bytes: suiteShaped(trap, 7)}, false, "trap unreachable"},
	} {
		mods := SuiteModules([]workloads.Item{tc.item}) // full, then m0
		m := mods[0]
		if tc.m0 {
			m = mods[1]
		}
		_, d := o.RunSuite(m)
		switch {
		case tc.detail == "" && d != nil:
			t.Errorf("%s: %v", tc.name, d)
		case tc.detail != "" && (d == nil || !strings.Contains(d.Detail, tc.detail)):
			t.Errorf("%s: got %v, want a failure mentioning %q", tc.name, d, tc.detail)
		}
	}
}
