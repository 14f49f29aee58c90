package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds, a declared fact: about
// what a workload's untraced pass measures for on the 2-core sandbox
// (13 to 26 s). Nothing is scaled by it.
const runSeconds = 20

// quickScale is what -quick multiplies every count and duration by.
const quickScale = 0.02

// runConfig is one invocation's settings. Counts are fixed per workload:
// they depend on Quick alone, never on a requested run length or on how
// fast the machine turns out to be.
type runConfig struct {
	Seed int64
	// Quick shrinks modules and counts so the tests finish in seconds;
	// its numbers are not comparable with a full run's.
	Quick bool
	// Tmp holds the disk-cache directories; the caller removes it.
	Tmp string
}

// n is a fixed count, shrunk under -quick down to a floor.
func (c runConfig) n(base, floor int) int {
	if !c.Quick {
		return base
	}
	return max(floor, int(math.Round(float64(base)*quickScale)))
}

func (c runConfig) dur(base time.Duration) time.Duration {
	if !c.Quick {
		return base
	}
	return time.Duration(float64(base) * quickScale)
}

const (
	// runSlices is how many slices the measured part of an untraced run
	// is cut into. Every slice takes its share of every phase's samples
	// and one closed-loop trial, so each metric's samples span the whole
	// run. The sandbox has bursts of outside interference about a second
	// long that slow dispatch-bound code 1.5x; a metric is the median
	// within a slice (which shrugs off shorter bursts) and the better
	// quartile across the run's slices (which shrugs off longer ones),
	// with the median across the slices printed beside it.
	runSlices    = 20
	quickSlices  = 4 // of two, the quartiles would lie outside their range
	warmTrialDur = 500 * time.Millisecond
	// warmupReqs requests go through each pool before its trial. Every
	// slice builds fresh pools: where the allocator happens to put two
	// instances' structs decides whether two clients share cache lines,
	// and one unlucky placement kept for a whole run read 2.5x slower on
	// host-bridge. Twenty placements per run, a quartile of them reported.
	warmupReqs = 20
)

// sampleSet accumulates one timing's samples per module over the slices
// of a run.
type sampleSet struct {
	perModule [][]float64 // every sample, for the pooled row figures
	sliceMeds [][]float64 // [module][slice]: the slice's median
}

func (ss *sampleSet) add(perModule [][]float64) {
	if ss.perModule == nil {
		ss.perModule = make([][]float64, len(perModule))
		ss.sliceMeds = make([][]float64, len(perModule))
	}
	for mi, xs := range perModule {
		ss.perModule[mi] = append(ss.perModule[mi], xs...)
		ss.sliceMeds[mi] = append(ss.sliceMeds[mi], median(xs))
	}
}

// sliceShare is slice s's part of total samples cut into n slices.
func sliceShare(total, s, n int) int { return total*(s+1)/n - total*s/n }

// runUntraced is the end-to-end pass: set-up (timed, repeated), then the
// cold/disk, warm and exec phases slice by slice, with runtime.GC()
// between phases only.
func runUntraced(w *workload, cfg runConfig) (*workloadReport, error) {
	t0 := time.Now()
	o := &ops{}
	b := newReportBuilder(w, false)
	reps, nslices := w.SetupReps, runSlices
	if cfg.Quick {
		reps, nslices = 1, quickSlices
	}
	fx, setupSecs, err := timedSetUps(w, cfg.Seed, cfg.Quick, cfg.Tmp, reps, o)
	if err != nil {
		return nil, err
	}
	asc := sorted(setupSecs)
	b.set("setup_s", metric{Value: percentile(asc, 0.5), N: len(asc), P10: percentile(asc, 0.1), P90: percentile(asc, 0.9), Slices: setupSecs})

	coldRounds, execRounds := cfg.n(w.ColdRounds, nslices), cfg.n(w.ExecRounds, nslices)
	var cold, disk, warm sampleSet
	exec := make([]sampleSet, len(fx.engs))
	var rpss []float64
	for s := 0; s < nslices; s++ {
		runtime.GC()
		c, d := coldDiskPhase(fx, sliceShare(coldRounds, s, nslices), o)
		cold.add(c)
		disk.add(d)

		runtime.GC()
		targets := warmTargets(fx, warmupReqs, o)
		lat, rps := warmTrial(targets, cfg.dur(warmTrialDur), o)
		closePools(targets)
		warm.add(lat)
		rpss = append(rpss, rps)

		runtime.GC()
		for ei, perModule := range execPhase(fx, sliceShare(execRounds, s, nslices), entryStart, o) {
			exec[ei].add(perModule)
		}
	}

	spc := requestCfg().Name
	b.sliced("cold_request_ms", spc, fx.mods, cold)
	b.sliced("disk_request_ms", spc, fx.mods, disk)
	b.sliced("warm_request_p50_us", spc, fx.mods, warm)
	n := 0
	for _, xs := range warm.perModule {
		n += len(xs)
	}
	b.overTrials("throughput_rps", rpss, n)
	for ei, ee := range fx.engs {
		b.sliced("exec_ms."+ee.Key, ee.Cfg.Name, fx.mods, exec[ei])
	}
	finish(b, o, t0)
	return b.rep, nil
}

func finish(b *reportBuilder, o *ops, t0 time.Time) {
	b.rep.OpsAttempted, b.rep.OpsFailed = o.attempted.Load(), o.failed.Load()
	b.rep.Failures = o.failures
	b.rep.WallSeconds = time.Since(t0).Seconds()
}

// tracedRequestsBase is the traced warm pass's per-client request count
// for a microsecond-scale request; workloads with slower requests get
// proportionally fewer through tracedDivisor.
const tracedRequestsBase = 20000

// runTraced is the per-layer pass: one set-up, then every layer timed
// from outside round by round, a traced replay of the cold, disk and
// warm request, and the counters the packages export.
func runTraced(w *workload, cfg runConfig) (*workloadReport, []span, error) {
	t0 := time.Now()
	o := &ops{}
	b := newReportBuilder(w, true)
	executeBefore := executeCount()
	fx, err := setUp(w, cfg.Seed, cfg.Quick, filepath.Join(cfg.Tmp, w.Name+"-disk-traced"), o)
	if err != nil {
		return nil, nil, err
	}
	sink := newLayerSink(len(fx.mods))
	epoch := time.Now()
	tr := &tracer{rec: newRecorder(epoch, 0), reqMod: map[int64]int{}}
	lr := layerRound{fx: fx, tr: tr, sink: sink, o: o, tmp: cfg.Tmp}

	runtime.GC()
	for r := 0; r < cfg.n(w.LayerRounds, 2); r++ {
		sink.add("bench.spin_ms", 0, spin())
		for mi := range fx.mods {
			if err := lr.run(mi, r); err != nil {
				return nil, nil, fmt.Errorf("bench: traced pass, %s: %w", fx.mods[mi].Name, err)
			}
		}
	}
	if err := callEntry(cfg.n(200, 20), sink, o); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	bridgeCosts(b, fx, cfg.n(w.ExecRounds, 5), o)

	runtime.GC()
	targets := warmTargets(fx, cfg.n(200, 20), o)
	untraced, _ := warmTrial(targets, cfg.dur(warmTrialDur), o)
	perClient := cfg.n(tracedRequestsBase/w.TracedDivisor, 20)
	warmSpans, pool := tracedWarm(targets, perClient, epoch, tr, o)
	closePools(targets)

	spans := append(tr.rec.spans, warmSpans...)
	self := selfTimes(spans)
	tracedWarmLat := make([][]float64, len(fx.mods))
	for _, s := range spans {
		mi := tr.reqMod[s.Req]
		if s.Name == "request.warm" {
			tracedWarmLat[mi] = append(tracedWarmLat[mi], float64(s.End-s.Start))
		}
		if name, ok := spanMetrics[s.Name]; ok {
			sink.add(name, mi, time.Duration(self[s.ID]))
		}
	}

	for name, perModule := range sink.times {
		b.timing(name, fx.mods, perModule)
	}
	for name, perModule := range sink.counts {
		sum := 0.0
		for _, v := range perModule {
			sum += max(v, 0)
		}
		b.value(name, sum, len(perModule))
	}
	artifactBytes, artifacts, err := dirBytes(fx.diskDir, "*.wzc")
	if err != nil {
		return nil, nil, err
	}
	disk := lr.disk
	b.value("engine.artifact_bytes", float64(artifactBytes), artifacts)
	b.value("engine.compile_calls_disk", float64(disk.compileCalls), 0)
	b.value("codecache.disk_hit_share", share(disk.hits, disk.hits+disk.misses), int(disk.hits+disk.misses))
	// Every disk replay must be served from the warm directory.
	o.attempted.Add(1)
	if disk.misses != 0 || disk.hits == 0 {
		o.fail("codecache.disk_hit_share: %d hits and %d misses over a warm disk cache, want every lookup to hit", disk.hits, disk.misses)
	}
	resets := pool.ResetsOnPut + pool.ResetsOnGet
	b.value("instancepool.reset_on_put_share", share(pool.ResetsOnPut, resets), int(resets))
	b.value("instancepool.hit_share", share(pool.Hits, pool.Gets), int(pool.Gets))
	b.value("instancepool.reset_mean_ns", share(uint64(pool.ResetTime), resets), int(resets))

	var tracedP50, untracedP50, p99 []float64
	for mi := range fx.mods {
		tracedP50 = append(tracedP50, median(tracedWarmLat[mi]))
		asc := sorted(untraced[mi])
		untracedP50 = append(untracedP50, percentile(asc, 0.5))
		p99 = append(p99, percentile(asc, 0.99))
	}
	b.value("bench.trace_overhead_share", geomean(tracedP50)/geomean(untracedP50)-1, len(warmSpans)/4)
	b.value("warm_request_p99_us", geomean(p99)/1e3, len(untraced[0]))

	// The program's own count of top-level guest calls must equal the
	// calls the benchmark made.
	delta := int64(executeCount()-executeBefore) - o.calls.Load()
	b.value("telemetry.execute_count_delta", float64(delta), int(o.calls.Load()))
	o.attempted.Add(1)
	if delta != 0 {
		o.fail("telemetry.execute_count_delta: wizgo_execute_seconds counted %d calls, the benchmark made %d", o.calls.Load()+delta, o.calls.Load())
	}
	finish(b, o, t0)
	return b.rep, spans, nil
}

// bridgeCosts reports what one call costs over the same loop with the
// call taken out: through the host bridge, and wasm to wasm, under each
// executor. Only host-bridge has the control exports; the other
// workloads report 0, because the driver's contract has every workload
// print every per-layer metric.
func bridgeCosts(b *reportBuilder, fx *fixture, rounds int, o *ops) {
	if !fx.w.HasControls {
		for _, ee := range fx.engs {
			b.value("engine.hostcall_ns."+ee.Key, 0, 0)
			b.value("engine.wasmcall_ns."+ee.Key, 0, 0)
		}
		return
	}
	var exec [numEntries][][][]float64
	for e := range exec {
		exec[e] = execPhase(fx, rounds, entryPoint(e), o)
	}
	m := fx.mods[0]
	for ei, ee := range fx.engs {
		base, calls := median(exec[entryEmpty][ei][0]), float64(m.BridgeCalls)
		b.value("engine.hostcall_ns."+ee.Key, (median(exec[entryStart][ei][0])-base)/calls, 2*rounds)
		b.value("engine.wasmcall_ns."+ee.Key, (median(exec[entryLocal][ei][0])-base)/calls, 2*rounds)
		for e, export := range entryExports {
			b.rep.Rows = append(b.rep.Rows, newRow("exec_ms/"+export, ee.Cfg.Name, m.Name, "ms", exec[e][ei][0]))
		}
	}
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
