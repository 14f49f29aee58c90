// Package harness implements the paper's measurement methodology
// (Section VI): main execution time (from _start entry to exit,
// excluding VM startup and compilation), total time T_E(m), the
// early-return module T_E(m0) and minimal module T_E(Mnop) used to bound
// per-module setup cost, adjusted execution time and adjusted speedup,
// and the statistics (per-line-item mean with min/max error bars across
// suites) behind every figure.
package harness

import (
	"fmt"
	"math"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/workloads"
)

// Sample is one run's timings for a line item under one engine config.
type Sample struct {
	// Setup is per-module processing before execution (decode,
	// validate, compile), measured directly from engine timings.
	Setup time.Duration
	// Main is the execution time of _start alone.
	Main time.Duration
	// Total is instantiate + _start (the T_E(m) of the paper).
	Total time.Duration
	// Checksum lets callers verify cross-engine agreement.
	Checksum int64
	// CodeBytes and ModuleBytes feed compile-throughput metrics.
	CodeBytes   int
	ModuleBytes int
}

// RunOnce instantiates a fresh engine (a fresh "VM instance", as the
// paper does for every run) and executes the module's _start.
// Compilation is pinned serial: the paper's setup-time measurements are
// single-threaded, and parallel fan-out would skew every compile-speed
// axis (Figures 8-10). The serving shape, which does exploit the worker
// pool, is the repository benchmark's to measure (bench/).
func RunOnce(cfg engine.Config, bytes []byte) (Sample, error) {
	cfg.CompileWorkers = 1
	e := engine.New(cfg, nil)
	t0 := time.Now()
	inst, err := e.Instantiate(bytes)
	if err != nil {
		return Sample{}, err
	}
	startFn, ok := inst.RT.FuncByName("_start")
	if !ok {
		return Sample{}, fmt.Errorf("harness: module has no _start")
	}
	t1 := time.Now()
	if _, err := inst.CallFunc(startFn); err != nil {
		return Sample{}, err
	}
	t2 := time.Now()

	s := Sample{
		Setup:       inst.Timings.Setup(),
		Main:        t2.Sub(t1),
		Total:       t2.Sub(t0),
		CodeBytes:   inst.Timings.CodeBytes,
		ModuleBytes: inst.Timings.ModuleBytes,
	}
	if sum, err := inst.Call("checksum"); err == nil && len(sum) == 1 {
		s.Checksum = sum[0].I64()
	}
	return s, nil
}

// Measure runs a line item `runs` times in fresh VM instances and
// returns the per-run samples.
func Measure(cfg engine.Config, bytes []byte, runs int) ([]Sample, error) {
	samples := make([]Sample, runs)
	for i := 0; i < runs; i++ {
		s, err := RunOnce(cfg, bytes)
		if err != nil {
			return nil, err
		}
		samples[i] = s
	}
	return samples, nil
}

// MainMedian returns the median main time of samples — the paper uses
// stable per-item repeats; the median suppresses scheduler noise.
func MainMedian(samples []Sample) time.Duration {
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.Main
	}
	return median(ds)
}

// TotalMedian returns the median total time.
func TotalMedian(samples []Sample) time.Duration {
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.Total
	}
	return median(ds)
}

// SetupMedian returns the median setup time.
func SetupMedian(samples []Sample) time.Duration {
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.Setup
	}
	return median(ds)
}

func median(ds []time.Duration) time.Duration {
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// Stat aggregates per-line-item values within a suite: the bars of the
// paper's figures are the suite mean, with error bars at the min and max
// line item (not measurement variance — Section VI-A's footnote).
type Stat struct {
	Mean, Min, Max float64
	N              int
}

// Aggregate computes a Stat over per-item values.
func Aggregate(values []float64) Stat {
	if len(values) == 0 {
		return Stat{}
	}
	st := Stat{Min: math.Inf(1), Max: math.Inf(-1), N: len(values)}
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(len(values))
	return st
}

// Geomean computes a geometric mean (used for cross-suite summaries).
func Geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range values {
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values)))
}

// StartupTime measures T_E(Mnop): the engine's time to load and run the
// minimal module, repeated `runs` times (the paper runs it hundreds of
// times; benchmarks scale this down).
func StartupTime(cfg engine.Config, runs int) (time.Duration, error) {
	nop := workloads.Mnop()
	samples, err := Measure(cfg, nop, runs)
	if err != nil {
		return 0, err
	}
	return TotalMedian(samples), nil
}

// AdjustedTimes implements the paper's setup-time bounding:
//
//	setup ≈ T(m0) − T(Mnop)    (upper bound of per-module processing)
//	adjusted main ≈ T(m) − T(m0)
type AdjustedTimes struct {
	Startup  time.Duration // T(Mnop)
	SetupUB  time.Duration // T(m0) − T(Mnop)
	Adjusted time.Duration // T(m) − T(m0)
}

// MeasureAdjusted runs the full methodology for one item/config pair.
//
// The paper notes these quantities are "crude" approximations subject to
// sampling error, and that precision "could probably be improved with
// metrics reported directly from instrumenting engines". This harness
// does both: the black-box differences use minimum-over-runs estimators
// (the standard noise-robust choice), and because our engines are not
// black boxes, degenerate subtractions (setup noise exceeding main time)
// are floored by the directly instrumented setup and main times.
func MeasureAdjusted(cfg engine.Config, item workloads.Item, runs int, startup time.Duration) (AdjustedTimes, error) {
	m0Samples, err := Measure(cfg, item.BytesM0, runs)
	if err != nil {
		return AdjustedTimes{}, err
	}
	mSamples, err := Measure(cfg, item.Bytes, runs)
	if err != nil {
		return AdjustedTimes{}, err
	}
	tm0 := minTotal(m0Samples)
	tm := minTotal(mSamples)
	at := AdjustedTimes{
		Startup:  startup,
		SetupUB:  maxDur(tm0-startup, 0),
		Adjusted: maxDur(tm-tm0, time.Nanosecond),
	}
	// Instrumented floors: the adjusted main time cannot be below the
	// measured main time, and the setup upper bound cannot be below the
	// measured per-phase setup.
	if instMain := MainMedian(mSamples); at.Adjusted < instMain {
		at.Adjusted = instMain
	}
	if instSetup := SetupMedian(mSamples); at.SetupUB < instSetup {
		at.SetupUB = instSetup
	}
	return at, nil
}

func minTotal(samples []Sample) time.Duration {
	m := samples[0].Total
	for _, s := range samples[1:] {
		if s.Total < m {
			m = s.Total
		}
	}
	return m
}

func maxDur(d, lo time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	return d
}
