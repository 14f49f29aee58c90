package main

import "math"

// metricDef is one entry of the metric catalogue. BENCHMARK.json names
// the same metrics with the same unit, direction and bound; a test holds
// the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening as a share of the parent's median; 0 for per-layer metrics
	// DriftOnly marks a bounded metric whose run-to-run spread is shown
	// but not judged: only the drift of its median between two sets of
	// runs is held to the bound, as the driver does for setup_s.
	DriftOnly bool
}

// endToEndMetrics are the metrics a user of the system would see. Every
// workload reports all of them, from the untraced pass.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, DriftOnly: true},
	{Name: "cold_request_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "disk_request_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "warm_request_p50_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "exec_ms.int", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "exec_ms.spc", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "exec_ms.rewriter", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "exec_ms.copypatch", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "exec_ms.opt", Unit: "ms", Better: "lower", Bound: 0.25},
}

// layer is a per-layer metric: named after its package, without a bound.
func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayerMetrics come from the traced pass.
var perLayerMetrics = []metricDef{
	layer("wasm.decode_ms", "ms", "lower"),
	layer("wasm.module_bytes", "count", "lower"),
	layer("validate.module_ms", "ms", "lower"),
	layer("analysis.module_ms", "ms", "lower"),
	layer("analysis.bounds_proven", "count", "higher"),
	layer("analysis.polls_elided", "count", "higher"),
	layer("spc.compile_ms", "ms", "lower"),
	layer("spc.code_bytes", "count", "lower"),
	layer("copypatch.compile_ms", "ms", "lower"),
	layer("copypatch.code_bytes", "count", "lower"),
	layer("opt.compile_ms", "ms", "lower"),
	layer("opt.code_bytes", "count", "lower"),
	layer("rewriter.translate_ms", "ms", "lower"),
	layer("rewriter.code_bytes", "count", "lower"),
	layer("engine.compile_ms", "ms", "lower"),
	layer("engine.compile_self_ms", "ms", "lower"),
	layer("engine.compile_alloc_kb", "kb", "lower"),
	layer("engine.compile_parallel_ms", "ms", "lower"),
	layer("engine.link_us", "us", "lower"),
	layer("engine.link_cold_us", "us", "lower"),
	layer("engine.snapshot_us", "us", "lower"),
	layer("engine.call_ns", "ns", "lower"),
	layer("engine.reset_us", "us", "lower"),
	layer("rt.dirty_granules", "count", "lower"),
	layer("engine.hostcall_ns.int", "ns", "lower"),
	layer("engine.hostcall_ns.spc", "ns", "lower"),
	layer("engine.hostcall_ns.rewriter", "ns", "lower"),
	layer("engine.hostcall_ns.copypatch", "ns", "lower"),
	layer("engine.hostcall_ns.opt", "ns", "lower"),
	layer("engine.wasmcall_ns.int", "ns", "lower"),
	layer("engine.wasmcall_ns.spc", "ns", "lower"),
	layer("engine.wasmcall_ns.rewriter", "ns", "lower"),
	layer("engine.wasmcall_ns.copypatch", "ns", "lower"),
	layer("engine.wasmcall_ns.opt", "ns", "lower"),
	layer("engine.tiered_first_call_ms", "ms", "lower"),
	layer("engine.rehydrate_ms", "ms", "lower"),
	layer("engine.artifact_bytes", "count", "lower"),
	layer("engine.compile_calls_disk", "count", "lower"),
	layer("engine.compile_store_ms", "ms", "lower"),
	layer("codecache.disk_load_ms", "ms", "lower"),
	layer("codecache.disk_hit_share", "share", "higher"),
	layer("codecache.mem_hit_us", "us", "lower"),
	layer("instancepool.get_ns", "ns", "lower"),
	layer("instancepool.put_ns", "ns", "lower"),
	layer("instancepool.reset_on_put_share", "share", "higher"),
	layer("instancepool.hit_share", "share", "higher"),
	layer("instancepool.reset_mean_ns", "ns", "lower"),
	layer("telemetry.execute_count_delta", "count", "lower"),
	layer("bench.spin_ms", "ms", "lower"),
	layer("bench.trace_overhead_share", "share", "lower"),
	// The tail of the warm request is scheduler events (a parked client,
	// a drainer goroutine taking the P): over ten runs its spread was 3%,
	// 15%, 23% and 26% on four workloads and one run read 5 us against a
	// median of 83. No phase length inside the time cap holds that in a
	// bound, so it is recorded here, ungated, under the issue's name.
	layer("warm_request_p99_us", "us", "lower"),
}

// unitDivisor converts a sample kept in nanoseconds (or bytes, for kb)
// to the metric's unit.
func unitDivisor(unit string) float64 {
	switch unit {
	case "s":
		return 1e9
	case "ms":
		return 1e6
	case "us":
		return 1e3
	case "kb":
		return 1024
	}
	return 1
}

// metric is one reported value. Timings carry p10, p90 and n beside the
// median; counts and shares only the value.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// DriftOnly copies the catalogue's flag into the file for -noise.
	DriftOnly bool    `json:"drift_only,omitempty"`
	N         int     `json:"n,omitempty"`
	P10       float64 `json:"p10,omitempty"`
	P90       float64 `json:"p90,omitempty"`
	// Slices is the figure of each slice of the run alone, in run order:
	// interference and drift within the run show here. SliceMedian is
	// their median. Value is their better quartile, so a slowdown that
	// shows in only some slices moves SliceMedian before it moves Value.
	Slices      []float64 `json:"slices,omitempty"`
	SliceMedian float64   `json:"slice_median,omitempty"`
}

// row is one line of the per-(engine, module) table beside the named
// metrics: the same estimator, before modules are combined.
type row struct {
	Metric string  `json:"metric"`
	Engine string  `json:"engine,omitempty"`
	Module string  `json:"module"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	P10    float64 `json:"p10"`
	P90    float64 `json:"p90"`
	N      int     `json:"n"`
	// Sliced is the better quartile of the slices' medians, the figure
	// the metric is built from, and SliceMedian their median (untraced
	// pass only).
	Sliced      float64 `json:"sliced,omitempty"`
	SliceMedian float64 `json:"slice_median,omitempty"`
}

// workloadReport is everything one workload printed in one pass.
type workloadReport struct {
	Name         string            `json:"name"`
	Why          string            `json:"why"`
	Traced       bool              `json:"traced"`
	OpsAttempted int64             `json:"ops_attempted"`
	OpsFailed    int64             `json:"ops_failed"`
	Failures     []string          `json:"failures,omitempty"`
	WallSeconds  float64           `json:"wall_s"`
	Metrics      map[string]metric `json:"metrics"`
	Rows         []row             `json:"rows"`
}

// runReport is one run of the benchmark over its workloads.
type runReport struct {
	Seed      int64            `json:"seed"`
	Quick     bool             `json:"quick,omitempty"`
	GoVersion string           `json:"go"`
	NumCPU    int              `json:"nproc"`
	Clients   int              `json:"clients"`
	Workloads []workloadReport `json:"workloads"`
}

// benchFile is the one schema every mode writes and -compare reads: a
// plain run holds one run, -noise K holds K and their spreads.
type benchFile struct {
	Schema string      `json:"schema"`
	Runs   []runReport `json:"runs"`
	Noise  []noiseRow  `json:"noise,omitempty"`
}

const schemaName = "wizgo-bench/1"

// catalogue indexes both metric lists by name.
var catalogue = func() map[string]metricDef {
	defs := map[string]metricDef{}
	for _, d := range endToEndMetrics {
		defs[d.Name] = d
	}
	for _, d := range perLayerMetrics {
		defs[d.Name] = d
	}
	return defs
}()

// reportBuilder turns sample lists into named metrics and rows.
type reportBuilder struct {
	rep *workloadReport
}

func newReportBuilder(w *workload, traced bool) *reportBuilder {
	return &reportBuilder{rep: &workloadReport{
		Name: w.Name, Why: w.Why, Traced: traced, Metrics: map[string]metric{},
	}}
}

func (b *reportBuilder) set(name string, m metric) {
	d, ok := catalogue[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		m.Value = 0
	}
	m.Unit, m.Better, m.Bound, m.DriftOnly = d.Unit, d.Better, d.Bound, d.DriftOnly
	b.rep.Metrics[name] = m
}

// value reports a count, share or already-reduced figure.
func (b *reportBuilder) value(name string, v float64, n int) { b.set(name, metric{Value: v, N: n}) }

// newRow summarizes nanosecond samples of one (engine, module) pair.
func newRow(name, engine, module, unit string, xs []float64) row {
	s, div := summarize(xs), unitDivisor(unit)
	return row{Metric: name, Engine: engine, Module: module, Unit: unit,
		Median: s.Median / div, P10: s.P10 / div, P90: s.P90 / div, N: s.N}
}

// timing reports nanosecond samples per module: each module's median,
// p10 and p90 go to the row table, and the metric is the geometric mean
// of the per-module figures. Modules with no samples are skipped.
func (b *reportBuilder) timing(name string, mods []module, perModule [][]float64) {
	unit := catalogue[name].Unit
	var med, p10, p90 []float64
	n := 0
	for mi, xs := range perModule {
		if len(xs) == 0 {
			continue
		}
		r := newRow(name, "", mods[mi].Name, unit, xs)
		med, p10, p90 = append(med, r.Median), append(p10, r.P10), append(p90, r.P90)
		n += r.N
		b.rep.Rows = append(b.rep.Rows, r)
	}
	b.set(name, metric{Value: geomean(med), N: n, P10: geomean(p10), P90: geomean(p90)})
}

// betterQuartile is how a run's slice (or trial) figures become one:
// the quartile on the metric's better side. It needs a quarter of the
// slices undisturbed, where a median across slices needs half, and
// unlike the single best slice it does not ride on one lucky reading
// (over six runs the best slice of requests-readonly exec ranged 16%,
// the quartile 4%).
func betterQuartile(perSlice []float64, better string) float64 {
	q1, q3 := quartiles(perSlice)
	if better == "higher" {
		return q3
	}
	return q1
}

// sliced reports a timing sampled over the slices of an untraced run:
// per module, the better quartile of the slices' medians; over modules,
// the geometric mean. The median across the slices, and the pooled
// median, p10 and p90 of every sample in the row table, go beside it.
func (b *reportBuilder) sliced(name, engine string, mods []module, ss sampleSet) {
	d := catalogue[name]
	div := unitDivisor(d.Unit)
	var vals, meds, p10, p90 []float64
	n := 0
	for mi, xs := range ss.perModule {
		r := newRow(name, engine, mods[mi].Name, d.Unit, xs)
		r.Sliced = betterQuartile(ss.sliceMeds[mi], d.Better) / div
		r.SliceMedian = median(ss.sliceMeds[mi]) / div
		vals, meds = append(vals, r.Sliced), append(meds, r.SliceMedian)
		p10, p90 = append(p10, r.P10), append(p90, r.P90)
		n += r.N
		b.rep.Rows = append(b.rep.Rows, r)
	}
	perSlice := make([]float64, len(ss.sliceMeds[0]))
	for s := range perSlice {
		var one []float64
		for mi := range ss.sliceMeds {
			one = append(one, ss.sliceMeds[mi][s]/div)
		}
		perSlice[s] = geomean(one)
	}
	b.set(name, metric{Value: geomean(vals), N: n, P10: geomean(p10), P90: geomean(p90),
		Slices: perSlice, SliceMedian: geomean(meds)})
}

// overTrials reports a figure computed once per closed-loop trial as the
// better quartile of the run's trials, with their median beside it.
func (b *reportBuilder) overTrials(name string, perTrial []float64, n int) {
	asc := sorted(perTrial)
	b.set(name, metric{Value: betterQuartile(perTrial, catalogue[name].Better), N: n,
		P10: percentile(asc, 0.1), P90: percentile(asc, 0.9), Slices: perTrial, SliceMedian: percentile(asc, 0.5)})
}
