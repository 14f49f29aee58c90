package engine

import (
	"errors"
	"time"

	"wizgo/internal/analysis"
	"wizgo/internal/rt"
	"wizgo/internal/telemetry"
)

// Process-wide latency histograms for the engine pipeline. Compile and
// rehydrate cover the per-module setup cost the code cache amortizes;
// link is the per-instance cost that remains; execute is the per-request
// cost. Together with the cache and pool series they answer the
// deployment question the paper poses — where does a request's time go?
var (
	hCompile = telemetry.Default().Histogram("wizgo_compile_seconds",
		"Full compile pipeline latency per module (decode+validate+compile).")
	hRehydrate = telemetry.Default().Histogram("wizgo_rehydrate_seconds",
		"Artifact rehydration latency per module (zero-compile disk load).")
	hLink = telemetry.Default().Histogram("wizgo_link_seconds",
		"Instantiation (link) latency per instance.")
	hExecute = telemetry.Default().Histogram("wizgo_execute_seconds",
		"Top-level guest call latency (re-entrant guest calls excluded).")

	mCompileCalls = telemetry.Default().Counter("wizgo_compile_calls_total",
		"Per-function compiler invocations across all engines.")

	hAnalyze = telemetry.Default().Histogram("wizgo_analysis_seconds",
		"Static-analysis pass latency per module (writes-memory scan).")
	mAnalysisFacts = telemetry.Default().Counter("wizgo_analysis_facts_total",
		"Static-analysis facts derived: functions proven read-only.")
)

// noteAnalysis publishes one finished static-analysis pass.
func noteAnalysis(s analysis.Stats, dur time.Duration) {
	hAnalyze.Observe(dur)
	mAnalysisFacts.Add(uint64(s.ReadOnly))
}

// noteExecute publishes one finished top-level call: the execute
// histogram, an execute span, and — when the call trapped — a trap or
// interrupt span labeled with the trap kind.
func noteExecute(name string, start time.Time, err error) {
	dur := time.Since(start)
	hExecute.Observe(dur)
	tr := telemetry.DefaultTracer()
	if !tr.Enabled() {
		return
	}
	var t *rt.Trap
	if errors.As(err, &t) {
		stage := telemetry.StageTrap
		if t.Kind == rt.TrapInterrupted {
			stage = telemetry.StageInterrupt
		}
		tr.Record(stage, t.Kind.Label(), start, dur, t.Error())
	}
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	tr.Record(telemetry.StageExecute, name, start, dur, errStr)
}
