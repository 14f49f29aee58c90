package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
)

func concatBytes(mods []module) []byte {
	var all []byte
	for _, m := range mods {
		all = append(all, m.Bytes...)
	}
	return all
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range allWorkloads() {
		a, _, err := w.Gen(1, true)
		if err != nil {
			t.Fatal(err)
		}
		again, _, _ := w.Gen(1, true)
		other, _, _ := w.Gen(2, true)
		if !bytes.Equal(concatBytes(a), concatBytes(again)) {
			t.Errorf("%s: seed 1 generated different bytes twice", w.Name)
		}
		if bytes.Equal(concatBytes(a), concatBytes(other)) {
			t.Errorf("%s: seeds 1 and 2 generated the same bytes", w.Name)
		}
	}
}

// callUnder runs export on a fresh wizeng-int instance and returns the
// checksum export's reading: the independent interpreter the Go-side
// mirrors are held against.
func callUnder(t *testing.T, linker *engine.Linker, m module, export string) uint64 {
	t.Helper()
	inst, err := engine.New(engines.WizardINT(), linker).Instantiate(m.Bytes)
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	defer inst.Release()
	if _, err := inst.Call(export); err != nil {
		t.Fatalf("%s %s: %v", m.Name, export, err)
	}
	res, err := inst.Call("checksum")
	if err != nil {
		t.Fatalf("%s checksum: %v", m.Name, err)
	}
	return res[0].Bits
}

func TestExpectedValuesMatchInterpreter(t *testing.T) {
	for _, w := range allWorkloads() {
		seeds := 20
		if w.Name == "kernels" {
			seeds = 1 // the items and their golden values do not move with the seed
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			mods, linker, err := w.Gen(seed, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mods {
				for e, export := range entryExports {
					if entryPoint(e) != entryStart && !w.HasControls {
						continue
					}
					if got, want := callUnder(t, linker, m, export), m.want(entryPoint(e)); got != want {
						t.Errorf("%s seed %d %s: wizeng-int computes %d, Go mirror %d", m.Name, seed, export, got, want)
					}
				}
			}
		}
	}
}

func TestGoldenCoversEverySuiteItem(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != 78 {
		t.Errorf("golden.json holds %d checksums, want all 78 suite items", len(golden))
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestStatsHelpers(t *testing.T) {
	one2ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(one2ten); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(sorted(one2ten), 0.9); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, q3 := quartiles(one2ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if q1, q3 := quartiles([]float64{4, 1, 2}); !near(q1, 1) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if lo, hi := betterQuartile(one2ten, "lower"), betterQuartile(one2ten, "higher"); !near(lo, 2.75) || !near(hi, 8.25) {
		t.Errorf("better quartiles = %v (lower), %v (higher), want 2.75, 8.25", lo, hi)
	}
	// The quartiles of quickSlices values must not extrapolate, as those of two do.
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}[:quickSlices]); q1 < 1 || q3 > 4 {
		t.Errorf("quartiles of %d values = %v, %v, outside their range", quickSlices, q1, q3)
	}
	if got := spread(one2ten); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := geomean([]float64{3, 0}); got != 0 {
		t.Errorf("geomean with a zero term = %v, want 0", got)
	}
	s := summarize([]float64{5})
	if s.Median != 5 || s.P10 != 5 || s.P90 != 5 || s.N != 1 {
		t.Errorf("summarize of one sample = %+v", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out by 20
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// firstQuick caches one quick run for the tests that only read it.
var firstQuick struct {
	once             sync.Once
	untraced, traced map[string]workloadReport
}

func quickReportsOnce(t *testing.T) (untraced, traced map[string]workloadReport) {
	firstQuick.once.Do(func() { firstQuick.untraced, firstQuick.traced = quickReports(t) })
	return firstQuick.untraced, firstQuick.traced
}

// quickReports runs both passes of every workload at the quick scale.
func quickReports(t *testing.T) (untraced, traced map[string]workloadReport) {
	t.Helper()
	cfg := runConfig{Seed: 1, Quick: true, Tmp: t.TempDir()}
	untraced, traced = map[string]workloadReport{}, map[string]workloadReport{}
	for _, w := range allWorkloads() {
		u, err := runUntraced(&w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, spans, err := runTraced(&w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", w.Name)
		}
		for _, rep := range []*workloadReport{u, tr} {
			if rep.OpsFailed != 0 || rep.OpsAttempted == 0 {
				t.Errorf("%s: %d of %d ops failed: %v", rep.Name, rep.OpsFailed, rep.OpsAttempted, rep.Failures)
			}
		}
		untraced[w.Name], traced[w.Name] = *u, *tr
	}
	return untraced, traced
}

// benchmarkJSON is the driver's file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the benchmark declares %d", bj.RunSeconds, runSeconds)
	}
	ws := allWorkloads()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) || len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json names %d+%d metrics, the catalogue %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, d := range endToEndMetrics {
		if m := bj.EndToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, d)
		}
	}
	for i, d := range perLayerMetrics {
		if m := bj.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, d)
		}
	}

	untraced, traced := quickReportsOnce(t)
	for _, w := range ws {
		for pass, c := range map[string]struct {
			rep  workloadReport
			defs []metricDef
		}{"untraced": {untraced[w.Name], endToEndMetrics}, "traced": {traced[w.Name], perLayerMetrics}} {
			if len(c.rep.Metrics) != len(c.defs) {
				t.Errorf("%s %s pass printed %d metrics, the catalogue names %d", w.Name, pass, len(c.rep.Metrics), len(c.defs))
			}
			for _, d := range c.defs {
				if _, ok := c.rep.Metrics[d.Name]; !ok {
					t.Errorf("%s %s pass did not print %s", w.Name, pass, d.Name)
				}
			}
		}
		line := contractLine(untraced[w.Name])
		var contract map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &contract); err != nil || len(contract) != 4 {
			t.Errorf("%s: contract line %q: %v", w.Name, line, err)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := contract[key]; !ok {
				t.Errorf("%s: contract line lacks %q", w.Name, key)
			}
		}
	}
}

// exactCounts are the per-layer metrics that must repeat exactly.
func exactCounts(rep workloadReport) map[string]float64 {
	out := map[string]float64{}
	for name, m := range rep.Metrics {
		if strings.HasSuffix(name, "_bytes") || (strings.HasPrefix(name, "analysis.") && m.Unit == "count") ||
			name == "rt.dirty_granules" {
			out[name] = m.Value
		}
	}
	return out
}

func TestExactCountsRepeat(t *testing.T) {
	_, first := quickReportsOnce(t)
	_, second := quickReports(t)
	for name, rep := range first {
		a, b := exactCounts(rep), exactCounts(second[name])
		if len(a) < 9 {
			t.Errorf("%s: only %d exact counts reported: %v", name, len(a), a)
		}
		for metric, v := range a {
			if b[metric] != v {
				t.Errorf("%s: %s was %v, then %v", name, metric, v, b[metric])
			}
		}
		for metric, want := range map[string]float64{
			"engine.compile_calls_disk": 0, "codecache.disk_hit_share": 1, "telemetry.execute_count_delta": 0,
		} {
			if got := rep.Metrics[metric].Value; got != want {
				t.Errorf("%s: %s = %v, want %v", name, metric, got, want)
			}
		}
	}
	if got := first["requests-dirty"].Metrics["rt.dirty_granules"].Value; got != requestGranules {
		t.Errorf("requests-dirty dirtied %v granules, want %d", got, requestGranules)
	}
	if got := first["requests-readonly"].Metrics["rt.dirty_granules"].Value; got != 0 {
		t.Errorf("requests-readonly dirtied %v granules, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, cur []float64
		better   string
		want     string
	}{
		{"inside the bound", []float64{100, 101, 102}, []float64{104, 105, 103}, "lower", "within"},
		{"beyond the bound", []float64{100, 101, 102}, []float64{120, 121, 119}, "lower", "worse"},
		{"every run better", []float64{100, 101, 102}, []float64{90, 91, 92}, "lower", "better"},
		{"higher is better, dropped", []float64{100, 101, 102}, []float64{80, 81, 82}, "higher", "worse"},
		{"higher is better, rose", []float64{100, 101, 102}, []float64{120, 121, 122}, "higher", "better"},
		{"too noisy to tell", []float64{80, 100, 130}, []float64{95, 115, 140}, "lower", "unresolved"},
		{"noisy but every run worse", []float64{80, 100, 120}, []float64{150, 180, 200}, "lower", "worse"},
	} {
		if got, _ := verdict(c.old, c.cur, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values []float64, failed int64) string {
		f := benchFile{Schema: schemaName}
		for _, v := range values {
			f.Runs = append(f.Runs, runReport{Workloads: []workloadReport{{
				Name: "kernels", OpsAttempted: 100, OpsFailed: failed,
				Metrics: map[string]metric{
					"exec_ms.spc":    {Value: v, Unit: "ms", Better: "lower", Bound: 0.10},
					"spc.compile_ms": {Value: v, Unit: "ms", Better: "lower"},
				},
			}}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", []float64{1.00, 1.01, 1.02}, 0)
	var out bytes.Buffer
	ok, err := compareFiles(&out, base, write("same.json", []float64{1.03, 1.01, 1.02}, 0))
	if err != nil || !ok || !strings.Contains(out.String(), "within") {
		t.Errorf("an unchanged metric: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if strings.Contains(out.String(), "spc.compile_ms") {
		t.Errorf("a per-layer metric got a verdict row:\n%s", out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, base, write("slow.json", []float64{1.30, 1.31, 1.32}, 0))
	if err != nil || ok || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 30%% slowdown: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, base, write("failing.json", []float64{1.00, 1.01, 1.02}, 3))
	if err != nil || ok || !strings.Contains(out.String(), "failed-op share rose") {
		t.Errorf("a higher failed-op share: ok=%v err=%v\n%s", ok, err, out.String())
	}

	out.Reset()
	other := benchFile{Schema: schemaName, Runs: []runReport{{Workloads: []workloadReport{{
		Name: "kernels", OpsAttempted: 100,
		Metrics: map[string]metric{"exec_ms.int": {Value: 1, Unit: "ms", Better: "lower", Bound: 0.10}},
	}}}}}
	data, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	dropped := filepath.Join(dir, "dropped.json")
	if err := os.WriteFile(dropped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err = compareFiles(&out, base, dropped)
	if err != nil || ok || !strings.Contains(out.String(), "missing") {
		t.Errorf("a gated metric the new file no longer reports: ok=%v err=%v\n%s", ok, err, out.String())
	}

	rows := noiseRows(&benchFile{Runs: []runReport{
		{Workloads: []workloadReport{{Name: "k", Metrics: map[string]metric{"m": {Value: 1, Bound: 0.1}}}}},
		{Workloads: []workloadReport{{Name: "k", Metrics: map[string]metric{"m": {Value: 2, Bound: 0.1}}}}},
		{Workloads: []workloadReport{{Name: "k", Metrics: map[string]metric{"m": {Value: 4, Bound: 0.1}}}}},
	}})
	if len(rows) != 1 || rows[0].Min != 1 || rows[0].Median != 2 || rows[0].Max != 4 || !near(rows[0].Spread, 1.5) {
		t.Errorf("noise rows = %+v, want min 1 median 2 max 4 spread 1.5", rows)
	}
	out.Reset()
	if printNoise(&out, rows) || !strings.Contains(out.String(), "EXCEEDS") {
		t.Errorf("a spread of 1.5 against a bound of 0.1 passed:\n%s", out.String())
	}
	rows[0].DriftOnly = true
	if !printNoise(&out, rows) {
		t.Errorf("a drift-only metric was judged on its spread:\n%s", out.String())
	}
}
