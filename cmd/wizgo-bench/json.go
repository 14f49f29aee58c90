package main

import (
	"encoding/json"
	"os"
	"time"

	"wizgo/internal/harness"
)

// Report is the machine-readable form of a wizgo-bench run, written by
// the -json flag. It feeds the BENCH_*.json perf trajectory: every
// figure the run produced, plus run metadata so results are comparable
// across commits.
type Report struct {
	Runs    int             `json:"runs"`
	Suite   string          `json:"suite,omitempty"`
	Items   int             `json:"items,omitempty"`
	Figures []FigureResult  `json:"figures"`
	Service []ServiceResult `json:"service,omitempty"`
	Pooled  []PooledResult  `json:"pooled,omitempty"`
	// ColdStart holds the persistent-cache cold-start ladder: full
	// compile vs zero-compile disk load vs in-memory hit.
	ColdStart []ColdStartResult `json:"coldstart,omitempty"`
	// Serving holds the multi-instance serving sweep: throughput and
	// histogram-derived latency percentiles per (workers, pool size)
	// cell. This is the BENCH_serving.json payload.
	Serving []ServingResult `json:"serving,omitempty"`
	// Analysis holds per-engine static-analysis totals over the selected
	// items: how many functions are proven read-only.
	Analysis []AnalysisResult `json:"analysis,omitempty"`
	// Metering holds the fuel-metering overhead measurement: the same
	// workload with metering disabled vs an unexhaustable budget, per
	// cataloged engine. With fuel disabled the checkpoint gate is one
	// predictable branch, so fuel_off must track the unmetered baselines
	// in the figures within noise.
	Metering []MeteringResult `json:"metering,omitempty"`
	// Telemetry is the process-wide telemetry snapshot taken after all
	// measurements — the same shape `wizgo -stats -json` and the expvar
	// endpoint report.
	Telemetry map[string]any `json:"telemetry,omitempty"`
}

// MeteringResult is one engine's fuel-metering overhead sample: median
// execution time with fuel off (0, metering disabled) and on (a budget
// the run cannot exhaust, so every checkpoint pays the decrement).
type MeteringResult struct {
	Engine      string        `json:"engine"`
	Item        string        `json:"item"`
	Runs        int           `json:"runs"`
	FuelOff     time.Duration `json:"fuel_off_p50_ns"`
	FuelOn      time.Duration `json:"fuel_on_p50_ns"`
	OverheadPct float64       `json:"overhead_pct"`
}

// AnalysisResult is one engine's static-analysis totals across the
// run's line items.
type AnalysisResult struct {
	Engine        string `json:"engine"`
	Funcs         int    `json:"funcs"`
	ReadOnlyFuncs int    `json:"read_only_funcs"`
}

// FigureResult is one figure's output: tables carry rows, scatter
// figures carry points.
type FigureResult struct {
	Figure  int               `json:"figure"`
	Title   string            `json:"title,omitempty"`
	Columns []string          `json:"columns,omitempty"`
	Rows    []RowResult       `json:"rows,omitempty"`
	Points  []harness.SQPoint `json:"points,omitempty"`
}

// RowResult is one table line.
type RowResult struct {
	Label string   `json:"label"`
	Cells []string `json:"cells"`
}

// ServiceResult is one compile-once/instantiate-many measurement.
type ServiceResult struct {
	Engine               string        `json:"engine"`
	Item                 string        `json:"item"`
	Compile              time.Duration `json:"compile_ns"`
	Instantiate          time.Duration `json:"instantiate_ns"`
	Main                 time.Duration `json:"main_ns"`
	CompileThroughputMBs float64       `json:"compile_mb_s"`
	Amortization         float64       `json:"amortization"`
}

// PooledResult is one pooled-serving measurement: requests served from
// an instance pool, setup cost split by the hit (reset) and miss
// (instantiate) paths.
type PooledResult struct {
	Engine    string        `json:"engine"`
	Item      string        `json:"item"`
	Compile   time.Duration `json:"compile_ns"`
	Get       time.Duration `json:"get_p50_ns"`
	MeanReset time.Duration `json:"reset_mean_ns"`
	MeanMiss  time.Duration `json:"miss_mean_ns"`
	ResetMax  time.Duration `json:"reset_max_ns"`
	// The on-put share of resets ran on the pool's background drainer
	// (off the request path); the on-get share landed back on Get.
	ResetsOnPut    uint64        `json:"resets_on_put"`
	ResetsOnGet    uint64        `json:"resets_on_get"`
	MeanResetOnPut time.Duration `json:"reset_on_put_mean_ns"`
	MeanResetOnGet time.Duration `json:"reset_on_get_mean_ns"`
	Hits           uint64        `json:"hits"`
	Misses         uint64        `json:"misses"`
	Workers        int           `json:"workers"`
	Requests       int           `json:"requests"`
	Amortization   float64       `json:"amortization"`
}

// ColdStartResult is one cold-start measurement: a seed process wrote
// the artifact, a fresh process served its first request from disk.
// ColdCompileCalls is the cold process's compiler-invocation count and
// must be 0 — wizgo-bench exits non-zero otherwise.
type ColdStartResult struct {
	Engine       string        `json:"engine"`
	Item         string        `json:"item"`
	FullCompile  time.Duration `json:"full_compile_ns"`
	DiskLoad     time.Duration `json:"disk_load_ns"`
	MemHit       time.Duration `json:"mem_hit_ns"`
	Instantiate  time.Duration `json:"instantiate_ns"`
	Main         time.Duration `json:"main_ns"`
	FirstRequest time.Duration `json:"first_request_ns"`
	// FullPipeline / ColdPipeline are the engine-reported per-module
	// pipeline work (decode+validate+compile vs decode+rehydrate);
	// Speedup is their ratio — see ColdStartSample.Speedup.
	FullPipeline     time.Duration `json:"full_pipeline_ns"`
	ColdPipeline     time.Duration `json:"cold_pipeline_ns"`
	Speedup          float64       `json:"speedup"`
	ColdCompileCalls uint64        `json:"cold_compile_calls"`
	DiskHits         uint64        `json:"disk_hits"`
	DiskMisses       uint64        `json:"disk_misses"`
	DiskWrites       uint64        `json:"disk_writes"`
}

// ServingResult is one cell of the serving sweep: `requests` complete
// requests (pool get + _start + put) pushed through `workers` goroutines
// against a pool of `pool_size` instances.
type ServingResult struct {
	Engine        string        `json:"engine"`
	Item          string        `json:"item"`
	Workers       int           `json:"workers"`
	PoolSize      int           `json:"pool_size"`
	Requests      int           `json:"requests"`
	Compile       time.Duration `json:"compile_ns"`
	Wall          time.Duration `json:"wall_ns"`
	ThroughputRPS float64       `json:"throughput_rps"`
	Mean          time.Duration `json:"latency_mean_ns"`
	P50           time.Duration `json:"latency_p50_ns"`
	P90           time.Duration `json:"latency_p90_ns"`
	P99           time.Duration `json:"latency_p99_ns"`
	Hits          uint64        `json:"hits"`
	Misses        uint64        `json:"misses"`
}

func (r *Report) addTable(fig int, t *harness.Table) {
	fr := FigureResult{Figure: fig, Title: t.Title, Columns: t.Columns}
	for _, row := range t.Rows {
		fr.Rows = append(fr.Rows, RowResult{Label: row.Label, Cells: row.Cells})
	}
	r.Figures = append(r.Figures, fr)
}

func (r *Report) addPoints(fig int, title string, points []harness.SQPoint) {
	r.Figures = append(r.Figures, FigureResult{Figure: fig, Title: title, Points: points})
}

func (r *Report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
