// Command wizgo-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	wizgo-bench -fig 4 [-runs 5] [-suite polybench] [-items 10] [-json out.json]
//
// Figures: 3 (feature matrix), 4 (SPC optimization ablations),
// 5 (value-tag configurations), 6 (probe overhead), 7 (baseline
// execution shootout), 8 (baseline compile-speed shootout), 9 (baseline
// SQ-space scatter), 10 (full 18-tier SQ-space).
//
// -service additionally measures the compile-once / instantiate-many
// pipeline (compile throughput and instantiation amortization) for the
// baseline compilers. -pool measures the pooled serving mode on top of
// it: requests drawn from an instance pool with copy-on-write reset,
// reporting get/reset/miss latencies under -pool-workers contention.
// -serving sweeps the full serving shape: complete requests (pool get →
// _start → put) pushed through worker-count × instance-count cells, each
// cell reporting throughput and latency percentiles derived from the
// telemetry histograms. -coldstart measures the persistent-cache rung below both: a seed
// process writes the compiled artifact to -cache-dir and a simulated
// cold process serves its first request from disk; the run exits
// non-zero if any cold start invoked the compiler. -metering measures
// what per-call fuel metering costs: gemm under every cataloged engine
// with the budget off (metering disabled — must be within noise of the
// unmetered baselines) and on but never exhausted. -nofigs skips the
// figure tables for such serving-mode-only runs. -json writes
// everything the run produced as machine-readable JSON for the perf
// trajectory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/harness"
	"wizgo/internal/telemetry"
	"wizgo/internal/workloads"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (3-10); 0 = all tables")
	runs := flag.Int("runs", 5, "runs per line item (paper: 25)")
	suite := flag.String("suite", "", "restrict to one suite (polybench, libsodium, ostrich)")
	items := flag.Int("items", 0, "restrict to first N items per suite (0 = all)")
	jsonPath := flag.String("json", "", "write figure results as JSON to this path")
	service := flag.Bool("service", false, "measure compile-once/instantiate-many for the baseline compilers")
	instances := flag.Int("instances", 8, "instances per module for -service")
	pooled := flag.Bool("pool", false, "measure pooled serving (instance recycling + copy-on-write reset) for the baseline compilers")
	requests := flag.Int("requests", 32, "requests per module for -pool")
	poolWorkers := flag.Int("pool-workers", 4, "concurrent workers driving the pool for -pool")
	poolSize := flag.Int("pool-size", 4, "idle instances the pool retains for -pool")
	serving := flag.Bool("serving", false, "measure multi-instance serving: throughput and latency percentiles swept over worker and pool-instance counts")
	coldstart := flag.Bool("coldstart", false, "measure zero-compile cold starts from a persistent code cache; exits non-zero if any cold start invoked the compiler")
	metering := flag.Bool("metering", false, "measure fuel-metering overhead on gemm: execution time with the per-call fuel budget off vs on (never exhausted), per cataloged engine")
	cacheDir := flag.String("cache-dir", "", "persistent cache directory for -coldstart (default: a fresh temp dir, removed afterwards)")
	nofigs := flag.Bool("nofigs", false, "skip the figure tables (use with -service/-pool/-coldstart; -fig 0 means all figures, so it cannot express this)")
	coldChild := flag.String("coldchild", "", "internal: run one cold-start child measurement (full|disk) and print JSON")
	coldTier := flag.String("coldtier", "", "internal: tier for -coldchild")
	coldItem := flag.String("colditem", "", "internal: suite/name workload for -coldchild")
	flag.Parse()

	if *coldChild != "" {
		runColdChild(*coldChild, *coldTier, *coldItem, *cacheDir)
		return
	}

	all := workloads.All()
	if *suite != "" {
		var filtered []workloads.Item
		for _, it := range all {
			if it.Suite == *suite {
				filtered = append(filtered, it)
			}
		}
		all = filtered
	}
	if *items > 0 {
		perSuite := map[string]int{}
		var filtered []workloads.Item
		for _, it := range all {
			if perSuite[it.Suite] < *items {
				filtered = append(filtered, it)
				perSuite[it.Suite]++
			}
		}
		all = filtered
	}
	if len(all) == 0 {
		fmt.Fprintln(os.Stderr, "no line items selected")
		os.Exit(1)
	}

	report := &Report{Runs: *runs, Suite: *suite, Items: *items}

	run := func(n int) {
		switch n {
		case 3:
			t := harness.Figure3()
			fmt.Print(t.Render())
			report.addTable(3, t)
		case 4:
			t, err := harness.Figure4(all, *runs)
			emit(report, 4, t, err)
		case 5:
			t, err := harness.Figure5(all, *runs)
			emit(report, 5, t, err)
		case 6:
			t, err := harness.Figure6(all, *runs)
			emit(report, 6, t, err)
		case 7:
			t, err := harness.Figure7(all, *runs)
			emit(report, 7, t, err)
		case 8:
			t, err := harness.Figure8(all, *runs)
			emit(report, 8, t, err)
		case 9:
			points, err := harness.Figure9(all, *runs)
			check(err)
			fmt.Print(harness.RenderSQ("Figure 9: SQ-space of baseline compilers", points))
			report.addPoints(9, "SQ-space of baseline compilers", points)
		case 10:
			points, err := harness.Figure10(all, *runs)
			check(err)
			fmt.Print(harness.RenderSQ("Figure 10: SQ-space of 18 execution tiers", points))
			report.addPoints(10, "SQ-space of 18 execution tiers", points)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %d\n", n)
			os.Exit(1)
		}
		fmt.Println()
	}

	switch {
	case *nofigs:
	case *fig != 0:
		run(*fig)
	default:
		for _, n := range []int{3, 4, 5, 6, 7, 8, 9, 10} {
			run(n)
		}
	}

	if *service {
		runService(report, all, *instances)
	}
	if *pooled {
		runPooled(report, all, *requests, *poolWorkers, *poolSize)
	}
	if *serving {
		runServing(report, all, *requests)
	}
	coldViolations := 0
	if *coldstart {
		coldViolations = runColdStart(report, all, *cacheDir, *runs)
	}
	if *metering {
		runMetering(report, *runs)
	}

	if *jsonPath != "" {
		report.Analysis = analysisTotals(all)
		// The process-wide snapshot rides along: the same counters and
		// histograms a scraped /metrics endpoint would report, populated
		// by everything the run executed.
		report.Telemetry = telemetry.Default().Snapshot().JSONValue()
		if err := report.write(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "wizgo-bench: writing json:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
	if coldViolations > 0 {
		fmt.Fprintf(os.Stderr, "wizgo-bench: %d cold start(s) invoked the compiler (want zero-compile disk loads)\n",
			coldViolations)
		os.Exit(1)
	}
}

// runService measures the compile-once / instantiate-many shape for the
// six baseline compilers over the selected items.
func runService(report *Report, items []workloads.Item, instances int) {
	fmt.Println("== Service: compile once, instantiate many ==")
	fmt.Printf("%-14s %-22s %12s %14s %12s %10s\n",
		"engine", "item", "compile", "instantiate", "MB/s", "amort")
	for _, cfg := range engines.BaselineShootout() {
		for _, it := range items {
			s, err := harness.MeasureService(cfg, it.Bytes, instances)
			check(err)
			key := it.Suite + "/" + it.Name
			fmt.Printf("%-14s %-22s %12v %14v %12.2f %9.0fx\n",
				cfg.Name, key, s.Compile, s.Instantiate,
				s.CompileThroughput(), s.Amortization())
			report.Service = append(report.Service, ServiceResult{
				Engine: cfg.Name, Item: key,
				Compile: s.Compile, Instantiate: s.Instantiate, Main: s.Main,
				CompileThroughputMBs: s.CompileThroughput(),
				Amortization:         s.Amortization(),
			})
		}
	}
	fmt.Println()
}

// runPooled measures the pooled serving mode: requests served from an
// instance pool under worker contention, reporting the per-request get
// latency split into the reset (hit) and instantiate (miss) paths.
func runPooled(report *Report, items []workloads.Item, requests, workers, poolSize int) {
	fmt.Println("== Pooled: recycle instances, copy-on-write reset ==")
	fmt.Printf("%-14s %-22s %12s %12s %12s %8s %10s\n",
		"engine", "item", "get(p50)", "reset", "miss", "hits", "amort")
	for _, cfg := range engines.BaselineShootout() {
		for _, it := range items {
			s, err := harness.MeasurePooled(cfg, it.Bytes, requests, workers, poolSize)
			check(err)
			key := it.Suite + "/" + it.Name
			fmt.Printf("%-14s %-22s %12v %12v %12v %3d/%-4d %9.0fx\n",
				cfg.Name, key, s.Get, s.MeanReset, s.MeanMiss,
				s.Hits, s.Hits+s.Misses, s.Amortization())
			report.Pooled = append(report.Pooled, PooledResult{
				Engine: cfg.Name, Item: key,
				Compile: s.Compile, Get: s.Get,
				MeanReset: s.MeanReset, MeanMiss: s.MeanMiss, ResetMax: s.ResetMax,
				ResetsOnPut: s.ResetsOnPut, ResetsOnGet: s.ResetsOnGet,
				MeanResetOnPut: s.MeanResetOnPut, MeanResetOnGet: s.MeanResetOnGet,
				Hits: s.Hits, Misses: s.Misses,
				Workers: s.Workers, Requests: s.Requests,
				Amortization: s.Amortization(),
			})
		}
	}
	fmt.Println()
}

// runServing sweeps the multi-instance serving shape: for each baseline
// compiler and item, requests are pushed through (workers × pool size)
// cells and each cell reports throughput plus latency percentiles read
// from a telemetry histogram — the data behind BENCH_serving.json.
func runServing(report *Report, items []workloads.Item, requests int) {
	workerSweep := []int{1, 2, 4}
	poolSweep := []int{1, 4}
	fmt.Println("== Serving: throughput and latency vs workers × instances ==")
	fmt.Printf("%-14s %-22s %3s %5s %10s %12s %12s %12s %8s\n",
		"engine", "item", "wrk", "insts", "req/s", "p50", "p90", "p99", "hits")
	for _, cfg := range engines.BaselineShootout() {
		for _, it := range items {
			key := it.Suite + "/" + it.Name
			for _, workers := range workerSweep {
				for _, poolSize := range poolSweep {
					s, err := harness.MeasureServing(cfg, it.Bytes, requests, workers, poolSize)
					check(err)
					fmt.Printf("%-14s %-22s %3d %5d %10.1f %12v %12v %12v %3d/%-4d\n",
						cfg.Name, key, workers, poolSize, s.Throughput,
						s.P50, s.P90, s.P99, s.Hits, s.Hits+s.Misses)
					report.Serving = append(report.Serving, ServingResult{
						Engine: cfg.Name, Item: key,
						Workers: s.Workers, PoolSize: s.PoolSize, Requests: s.Requests,
						Compile: s.Compile, Wall: s.Wall,
						ThroughputRPS: s.Throughput,
						Mean:          s.Mean, P50: s.P50, P90: s.P90, P99: s.P99,
						Hits: s.Hits, Misses: s.Misses,
					})
				}
			}
		}
	}
	fmt.Println()
}

// runColdStart seeds a persistent cache directory per engine/item pair
// and measures the cold process's time-to-first-response: disk load +
// link + first run, against the full compile it avoided. Every sample
// runs in a fresh child process (see coldproc.go), so the compiler and
// loader code paths are as cold as a real process restart leaves them.
// Returns the number of cold starts that invoked the compiler (the
// contract is exactly zero — the caller turns any violation into a
// non-zero exit, which makes the CI smoke an assertion rather than a
// printout).
func runColdStart(report *Report, items []workloads.Item, cacheDir string, runs int) (violations int) {
	dir := cacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "wizgo-coldstart-*")
		if err != nil {
			check(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	self, err := os.Executable()
	check(err)
	fmt.Println("== Cold start: persistent code cache, zero-compile loads ==")
	fmt.Printf("%-14s %-22s %12s %12s %12s %12s %12s %8s %9s\n",
		"engine", "item", "full", "diskload", "pipe-full", "pipe-cold", "first-req", "speedup", "compiles")
	for _, cfg := range engines.BaselineShootout() {
		for _, it := range items {
			s, err := measureColdStartProc(self, cfg.Name, it.Suite+"/"+it.Name, dir, runs)
			check(err)
			key := it.Suite + "/" + it.Name
			fmt.Printf("%-14s %-22s %12v %12v %12v %12v %12v %7.1fx %9d\n",
				cfg.Name, key, s.FullCompile, s.DiskLoad,
				s.FullPipeline, s.ColdPipeline,
				s.FirstRequest, s.Speedup(), s.ColdCompileCalls)
			if s.ColdCompileCalls != 0 {
				violations++
			}
			report.ColdStart = append(report.ColdStart, ColdStartResult{
				Engine: cfg.Name, Item: key,
				FullCompile: s.FullCompile, DiskLoad: s.DiskLoad,
				MemHit: s.MemHit, Instantiate: s.Instantiate,
				Main: s.Main, FirstRequest: s.FirstRequest,
				FullPipeline:     s.FullPipeline,
				ColdPipeline:     s.ColdPipeline,
				Speedup:          s.Speedup(),
				ColdCompileCalls: s.ColdCompileCalls,
				DiskHits:         s.DiskHits,
				DiskMisses:       s.DiskMisses,
				DiskWrites:       s.DiskWrites,
			})
		}
	}
	fmt.Println()
	return violations
}

// runMetering measures what fuel metering costs: gemm run under every
// cataloged engine with metering disabled (fuel 0 — the checkpoint gate
// is a single predictable branch) and with a budget the run cannot
// exhaust (every checkpoint pays the decrement), medians compared. The
// off column is the regression guard: it must track the unmetered
// baselines in the figures within noise.
func runMetering(report *Report, runs int) {
	var gemm workloads.Item
	for _, it := range workloads.All() {
		if it.Name == "gemm" {
			gemm = it
			break
		}
	}
	if gemm.Bytes == nil {
		check(fmt.Errorf("gemm workload not found"))
	}
	if runs < 3 {
		runs = 3
	}
	fmt.Println("== Metering: gemm execution, fuel off vs on ==")
	fmt.Printf("%-14s %-22s %12s %12s %10s\n",
		"engine", "item", "off(p50)", "on(p50)", "overhead")
	for _, cfg := range engines.Catalog() {
		eng := engine.New(cfg, nil)
		cm, err := eng.Compile(gemm.Bytes)
		check(err)
		measure := func(fuel int64) time.Duration {
			times := make([]time.Duration, runs)
			for r := range times {
				inst, err := cm.Instantiate()
				check(err)
				t0 := time.Now()
				_, err = inst.CallWith(context.Background(), engine.CallOpts{Fuel: fuel}, "_start")
				check(err)
				times[r] = time.Since(t0)
				inst.Release()
			}
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			return times[len(times)/2]
		}
		measure(0) // warm the tier (lazy compiles, caches) outside the samples
		off := measure(0)
		on := measure(1 << 40)
		overhead := 100 * (float64(on) - float64(off)) / float64(off)
		fmt.Printf("%-14s %-22s %12v %12v %9.1f%%\n",
			cfg.Name, "polybench/gemm", off, on, overhead)
		report.Metering = append(report.Metering, MeteringResult{
			Engine: cfg.Name, Item: "polybench/gemm", Runs: runs,
			FuelOff: off, FuelOn: on, OverheadPct: overhead,
		})
	}
	fmt.Println()
}

// analysisTotals compiles the selected items once per catalog engine
// and totals the static-analysis stats.
func analysisTotals(items []workloads.Item) []AnalysisResult {
	var results []AnalysisResult
	for _, cfg := range engines.Catalog() {
		r := AnalysisResult{Engine: cfg.Name}
		eng := engine.New(cfg, nil)
		for _, it := range items {
			cm, err := eng.Compile(it.Bytes)
			check(err)
			st := cm.AnalysisStats()
			r.Funcs += st.Funcs
			r.ReadOnlyFuncs += st.ReadOnly
		}
		results = append(results, r)
	}
	return results
}

func emit(report *Report, fig int, t *harness.Table, err error) {
	check(err)
	fmt.Print(t.Render())
	report.addTable(fig, t)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wizgo-bench:", err)
		os.Exit(1)
	}
}
