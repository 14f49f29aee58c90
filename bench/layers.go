package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"wizgo/internal/analysis"
	"wizgo/internal/codecache"
	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/instancepool"
	"wizgo/internal/telemetry"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// layerSink collects the traced pass: timing samples per (metric,
// module) in nanoseconds, and exact counts per (metric, module).
type layerSink struct {
	nmods  int
	times  map[string][][]float64
	counts map[string][]float64
}

func newLayerSink(nmods int) *layerSink {
	return &layerSink{nmods: nmods, times: map[string][][]float64{}, counts: map[string][]float64{}}
}

func (s *layerSink) add(metric string, mi int, d time.Duration) {
	if s.times[metric] == nil {
		s.times[metric] = make([][]float64, s.nmods)
	}
	s.times[metric][mi] = append(s.times[metric][mi], ns(d))
}

// count records an exact count for one module. A count that differs
// between rounds is a nondeterminism bug, reported as a failed op.
func (s *layerSink) count(metric string, mi int, v float64, o *ops) {
	if s.counts[metric] == nil {
		s.counts[metric] = make([]float64, s.nmods)
		for i := range s.counts[metric] {
			s.counts[metric][i] = -1
		}
	}
	if old := s.counts[metric][mi]; old >= 0 && old != v {
		o.attempted.Add(1)
		o.fail("%s changed between rounds: %v then %v", metric, old, v)
	}
	s.counts[metric][mi] = v
}

// spanMetrics names the per-layer metric each traced span's self time
// feeds. Spans not listed (request roots, engine.call, engine.checksum,
// the rehydrating engine.compile) appear in the trace file only.
var spanMetrics = map[string]string{
	"wasm.decode":         "wasm.decode_ms",
	"validate.module":     "validate.module_ms",
	"analysis.module":     "analysis.module_ms",
	"spc.compile":         "spc.compile_ms",
	"engine.link":         "engine.link_cold_us",
	"codecache.disk_load": "codecache.disk_load_ms",
	"instancepool.get":    "instancepool.get_ns",
	"instancepool.put":    "instancepool.put_ns",
}

// tracer is the benchmark-side span recorder plus the request-to-module
// map that lets span times be grouped per module.
type tracer struct {
	rec     *recorder
	nextReq int64
	reqMod  map[int64]int
}

func (t *tracer) request(mi int) int64 {
	t.nextReq++
	t.reqMod[t.nextReq] = mi
	return t.nextReq
}

// compileFuncs is Σ Tier.Compile over a module's functions, the call
// engine.compileAll makes, from outside.
func compileFuncs(tier engine.Tier, mod *wasm.Module, infos []validate.FuncInfo) (codeBytes int, err error) {
	imported := mod.NumImportedFuncs()
	for i := range mod.Funcs {
		code, err := tier.Compile(mod, uint32(imported+i), &mod.Funcs[i], &infos[i], nil)
		if err != nil {
			return 0, err
		}
		codeBytes += code.Bytes()
	}
	return codeBytes, nil
}

// frontEnd is decode, validate and analyze with nothing timed: what a
// comparator tier's compile needs as input.
func frontEnd(bytes []byte) (*wasm.Module, []validate.FuncInfo, error) {
	mod, err := wasm.Decode(bytes)
	if err != nil {
		return nil, nil, err
	}
	infos, err := validate.Module(mod)
	if err != nil {
		return nil, nil, err
	}
	analysis.Module(mod, infos)
	return mod, infos, nil
}

// coldReplay replays a cold request as explicit layer calls in
// engine.compile's order, one span per layer under a request.cold root.
func (lr *layerRound) coldReplay(mi int) error {
	fx, tr, sink, o := lr.fx, lr.tr, lr.sink, lr.o
	m := fx.mods[mi]
	cfg := requestCfg()
	// Linking needs a CompiledModule, which only Engine.Compile can
	// make; it runs before the root span so the replay's layers are the
	// only compile work inside it.
	cm, err := engine.New(cfg, fx.linker).Compile(m.Bytes)
	if err != nil {
		return err
	}
	o.attempted.Add(1)
	o.calls.Add(2)
	rec, req := tr.rec, tr.request(mi)
	root := rec.begin("request.cold", 0, req)

	s := rec.begin("wasm.decode", root, req)
	mod, err := wasm.Decode(m.Bytes)
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("validate.module", root, req)
	infos, err := validate.Module(mod)
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("analysis.module", root, req)
	analysis.Module(mod, infos)
	rec.end(s)
	s = rec.begin("spc.compile", root, req)
	_, err = compileFuncs(cfg.Tier, mod, infos)
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("engine.link", root, req)
	inst, err := cm.Instantiate()
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("engine.call", root, req)
	_, err = inst.Call("_start")
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("engine.checksum", root, req)
	res, err := inst.Call("checksum")
	rec.end(s)
	rec.end(root)
	if err != nil {
		return err
	}
	if res[0].Bits != m.Want {
		o.fail("cold replay %s: checksum %d, want %d", m.Name, res[0].Bits, m.Want)
	}

	st := cm.AnalysisStats()
	sink.count("wasm.module_bytes", mi, float64(len(m.Bytes)), o)
	sink.count("analysis.bounds_proven", mi, float64(st.BoundsProven), o)
	sink.count("analysis.polls_elided", mi, float64(st.PollsElided), o)
	sink.count("spc.code_bytes", mi, float64(cm.Timings.CodeBytes), o)
	return nil
}

// diskTotals accumulates the disk path's counters over the traced pass.
type diskTotals struct {
	compileCalls, hits, misses uint64
}

// layerRound is what one module's turn in a round of the traced pass
// works with.
type layerRound struct {
	fx   *fixture
	tr   *tracer
	sink *layerSink
	o    *ops
	tmp  string
	disk diskTotals
}

// microReps is how often a round repeats its microsecond-scale
// measurements (link, reset, memory-cache hit).
const microReps = 5

func (lr *layerRound) run(mi, round int) error {
	if err := lr.coldReplay(mi); err != nil {
		return err
	}
	if err := lr.diskReplay(mi); err != nil {
		return err
	}
	if err := lr.compileLayers(mi, round); err != nil {
		return err
	}
	if err := lr.instanceLayers(mi); err != nil {
		return err
	}
	return lr.tieredFirstCall(mi)
}

// dirBytes sums the sizes of the files in dir that match pattern.
func dirBytes(dir, pattern string) (total int64, files int, err error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		st, err := os.Stat(name)
		if err != nil {
			return 0, 0, err
		}
		total += st.Size()
	}
	return total, len(names), nil
}

// diskReplay replays a first request over the warm cache directory:
// request.disk ▸ codecache.disk_load, engine.compile (the rehydrate
// path), engine.link, engine.call.
func (lr *layerRound) diskReplay(mi int) error {
	fx, tr, sink, o, tot := lr.fx, lr.tr, lr.sink, lr.o, &lr.disk
	m := fx.mods[mi]
	store, err := engine.OpenDiskCache(fx.diskDir)
	if err != nil {
		return err
	}
	cfg := requestCfg()
	cfg.Cache = codecache.New(codecache.Options{})
	cfg.DiskCache = store
	eng := engine.New(cfg, fx.linker)
	key := codecache.KeyFor(m.Bytes, cfg.Fingerprint())

	o.attempted.Add(1)
	o.calls.Add(1)
	rec, req := tr.rec, tr.request(mi)
	root := rec.begin("request.disk", 0, req)
	s := rec.begin("codecache.disk_load", root, req)
	_, done, ok := store.Load(key)
	if ok {
		done()
	}
	rec.end(s)
	s = rec.begin("engine.compile", root, req)
	cm, err := eng.Compile(m.Bytes)
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("engine.link", root, req)
	inst, err := cm.Instantiate()
	rec.end(s)
	if err != nil {
		return err
	}
	s = rec.begin("engine.call", root, req)
	_, err = inst.Call("_start")
	rec.end(s)
	rec.end(root)
	if err != nil {
		return err
	}
	switch got := checksumOf(inst); {
	case !ok:
		o.fail("disk replay %s: artifact missing from the warm directory", m.Name)
	case got != m.Want:
		o.fail("disk replay %s: checksum %d, want %d", m.Name, got, m.Want)
	case eng.CompileCalls() != 0:
		o.fail("disk replay %s: %d compiler invocations", m.Name, eng.CompileCalls())
	}
	sink.add("engine.rehydrate_ms", mi, cm.Timings.Rehydrate)
	st := cfg.Cache.Stats()
	tot.compileCalls += eng.CompileCalls()
	tot.hits += st.DiskHits
	tot.misses += st.DiskMisses
	return nil
}

// compileLayers times Engine.Compile from outside in its uncached,
// parallel, store-through and memory-hit shapes, and Σ Tier.Compile for
// the three comparator tiers.
func (lr *layerRound) compileLayers(mi, round int) error {
	fx, sink, o := lr.fx, lr.sink, lr.o
	m := fx.mods[mi]

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	cm, err := engine.New(requestCfg(), fx.linker).Compile(m.Bytes)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	sink.add("engine.compile_ms", mi, d)
	tm := cm.Timings
	sink.add("engine.compile_self_ms", mi, d-(tm.Decode+tm.Validate+tm.Analyze+tm.Compile))
	// Allocation is reported through the timing path (median over
	// rounds) with bytes standing in for nanoseconds.
	sink.add("engine.compile_alloc_kb", mi, time.Duration(after.TotalAlloc-before.TotalAlloc))

	par := requestCfg()
	par.CompileWorkers = 0
	t0 = time.Now()
	_, err = engine.New(par, fx.linker).Compile(m.Bytes)
	sink.add("engine.compile_parallel_ms", mi, time.Since(t0))
	if err != nil {
		return err
	}

	for _, c := range []struct {
		metric, bytes string
		cfg           engine.Config
	}{
		{"copypatch.compile_ms", "copypatch.code_bytes", engines.WasmNowLike()},
		{"opt.compile_ms", "opt.code_bytes", engines.TurboFanLike()},
		{"rewriter.translate_ms", "rewriter.code_bytes", engines.Wasm3Like()},
	} {
		mod, infos, err := frontEnd(m.Bytes)
		if err != nil {
			return err
		}
		t0 = time.Now()
		codeBytes, err := compileFuncs(c.cfg.Tier, mod, infos)
		sink.add(c.metric, mi, time.Since(t0))
		if err != nil {
			return err
		}
		sink.count(c.bytes, mi, float64(codeBytes), o)
	}

	dir := filepath.Join(lr.tmp, fmt.Sprintf("%s-store-%d-%d", fx.w.Name, round, mi))
	store, err := engine.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	storing := requestCfg()
	storing.DiskCache = store
	eng := engine.New(storing, fx.linker)
	t0 = time.Now()
	_, err = eng.Compile(m.Bytes)
	sink.add("engine.compile_store_ms", mi, time.Since(t0))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	// eng's memory cache now holds the module: every further Compile is
	// a content hash plus a lookup.
	for i := 0; i < microReps; i++ {
		t0 = time.Now()
		_, err = eng.Compile(m.Bytes)
		sink.add("codecache.mem_hit_us", mi, time.Since(t0))
		if err != nil {
			return err
		}
	}
	return nil
}

// instanceLayers times link, snapshot and a direct reset after one
// request, on the fixture's wizeng-spc unit (write-tracked, as the pool
// would hold it).
func (lr *layerRound) instanceLayers(mi int) error {
	fx, sink, o := lr.fx, lr.sink, lr.o
	m := fx.mods[mi]
	tracked := &fx.units[spcEngine][mi]
	cm := tracked.cm
	for i := 0; i < microReps; i++ {
		t0 := time.Now()
		inst, err := cm.Instantiate()
		if err != nil {
			return err
		}
		inst.Release()
		sink.add("engine.link_us", mi, time.Since(t0))
	}
	inst, err := cm.Instantiate()
	if err != nil {
		return err
	}
	t0 := time.Now()
	inst.Snapshot()
	sink.add("engine.snapshot_us", mi, time.Since(t0))
	inst.Release()

	for i := 0; i < microReps; i++ {
		o.attempted.Add(1)
		o.calls.Add(1)
		if _, err := tracked.inst.CallFunc(tracked.entries[entryStart]); err != nil {
			return err
		}
		if got := checksumOf(tracked.inst); got != m.Want {
			o.fail("reset layer %s: checksum %d, want %d (a reset left state behind)", m.Name, got, m.Want)
		}
		sink.count("rt.dirty_granules", mi, float64(tracked.inst.RT.Memory.DirtyGranules()), o)
		t0 = time.Now()
		err := tracked.inst.Reset(tracked.snap)
		sink.add("engine.reset_us", mi, time.Since(t0))
		if err != nil {
			return err
		}
	}
	return nil
}

// tieredFirstCall times the first _start on a fresh wizeng-tiered
// instance: interpretation, lazy compiles and OSR included.
func (lr *layerRound) tieredFirstCall(mi int) error {
	fx, sink, o := lr.fx, lr.sink, lr.o
	m := fx.mods[mi]
	cfg, _ := engines.ByName("wizeng-tiered")
	inst, err := engine.New(serial(cfg), fx.linker).Instantiate(m.Bytes)
	if err != nil {
		return err
	}
	o.attempted.Add(1)
	o.calls.Add(1)
	t0 := time.Now()
	_, err = inst.Call("_start")
	sink.add("engine.tiered_first_call_ms", mi, time.Since(t0))
	if err != nil {
		return err
	}
	if got := checksumOf(inst); got != m.Want {
		o.fail("tiered first call %s: checksum %d, want %d", m.Name, got, m.Want)
	}
	inst.Release()
	return nil
}

// spinLoops sizes the drift marker: a pure-Go loop that touches no
// engine code, so a round in which it reads slow was a slow machine.
const spinLoops = 1 << 21

var spinSink uint64

func spin() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinLoops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(t0)
}

// callEntry times CallFunc of an exported empty function on a ready
// wizeng-spc instance, in batches so the clock reads do not dominate.
func callEntry(batches int, sink *layerSink, o *ops) error {
	const batch = 256
	inst, err := engine.New(requestCfg(), nil).Instantiate(workloads.Mnop())
	if err != nil {
		return err
	}
	defer inst.Release()
	f, _ := inst.RT.FuncByName("_start")
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := inst.CallFunc(f); err != nil {
				return err
			}
		}
		sink.add("engine.call_ns", 0, time.Since(t0)/batch)
	}
	o.calls.Add(int64(batches * batch))
	return nil
}

// tracedWarm is the traced closed-loop pass: every client runs
// perClient requests, each recorded as request.warm ▸ instancepool.get,
// engine.call, instancepool.put. It returns the clients' spans and the
// pool counters accumulated during the pass only.
func tracedWarm(targets []warmTarget, perClient int, epoch time.Time, tr *tracer, o *ops) ([]span, instancepool.Stats) {
	before := poolStats(targets)
	w := clients()
	recs := make([]*recorder, w)
	reqBase := tr.nextReq
	for c := 0; c < w; c++ {
		for i := 0; i < perClient; i++ {
			tr.reqMod[reqBase+int64(c*perClient+i)+1] = (c + i) % len(targets)
		}
	}
	tr.nextReq += int64(w * perClient)
	var wg sync.WaitGroup
	for c := 0; c < w; c++ {
		wg.Add(1)
		recs[c] = newRecorder(epoch, c+1)
		go func(c int) {
			defer wg.Done()
			rec := recs[c]
			for i := 0; i < perClient; i++ {
				t := &targets[(c+i)%len(targets)]
				req := reqBase + int64(c*perClient+i) + 1
				root := rec.begin("request.warm", 0, req)
				s := rec.begin("instancepool.get", root, req)
				inst, err := t.pool.Get()
				rec.end(s)
				o.attempted.Add(1)
				if err != nil {
					rec.end(root)
					o.fail("traced warm request %s: get: %v", t.mod.Name, err)
					continue
				}
				s = rec.begin("engine.call", root, req)
				_, err = inst.CallFunc(inst.RT.Funcs[t.start])
				rec.end(s)
				got := checksumOf(inst)
				s = rec.begin("instancepool.put", root, req)
				t.pool.Put(inst)
				rec.end(s)
				rec.end(root)
				if err != nil {
					o.fail("traced warm request %s: %v", t.mod.Name, err)
				} else if got != t.mod.Want {
					o.fail("traced warm request %s: checksum %d, want %d", t.mod.Name, got, t.mod.Want)
				}
			}
		}(c)
	}
	wg.Wait()
	o.calls.Add(int64(w * perClient))
	var spans []span
	for _, r := range recs {
		spans = append(spans, r.spans...)
	}
	after := poolStats(targets)
	return spans, instancepool.Stats{
		Gets: after.Gets - before.Gets, Hits: after.Hits - before.Hits,
		ResetsOnPut: after.ResetsOnPut - before.ResetsOnPut,
		ResetsOnGet: after.ResetsOnGet - before.ResetsOnGet,
		ResetTime:   after.ResetTime - before.ResetTime,
	}
}

// poolStats sums the counters the per-layer pool metrics read.
func poolStats(targets []warmTarget) instancepool.Stats {
	var sum instancepool.Stats
	for _, t := range targets {
		st := t.pool.Stats()
		sum.Gets += st.Gets
		sum.Hits += st.Hits
		sum.ResetsOnPut += st.ResetsOnPut
		sum.ResetsOnGet += st.ResetsOnGet
		sum.ResetTime += st.ResetTime
	}
	return sum
}

// executeCount reads the program's own count of top-level guest calls.
func executeCount() uint64 {
	for _, h := range telemetry.Default().Snapshot().Histograms {
		if h.Desc.Name == "wizgo_execute_seconds" {
			return h.Count
		}
	}
	return 0
}
