package main

import (
	"runtime"
	"sync"
	"time"

	"wizgo/internal/codecache"
	"wizgo/internal/engine"
)

// ns converts a duration to the float nanoseconds samples are kept in.
func ns(d time.Duration) float64 { return float64(d) }

// coldRequest is one cold_request_ms sample: a fresh engine with no
// caches compiles, instantiates, runs _start and reads the checksum.
func coldRequest(fx *fixture, m module, o *ops) float64 {
	o.attempted.Add(1)
	o.calls.Add(2)
	t0 := time.Now()
	eng := engine.New(requestCfg(), fx.linker)
	got, err := firstRequest(eng, m)
	d := time.Since(t0)
	if err != nil {
		o.fail("cold request %s: %v", m.Name, err)
	} else if got != m.Want {
		o.fail("cold request %s: checksum %d, want %d", m.Name, got, m.Want)
	}
	return ns(d)
}

// firstRequest is what both first-request metrics time after engine
// construction: Compile, Instantiate, _start, checksum.
func firstRequest(eng *engine.Engine, m module) (uint64, error) {
	cm, err := eng.Compile(m.Bytes)
	if err != nil {
		return 0, err
	}
	inst, err := cm.Instantiate()
	if err != nil {
		return 0, err
	}
	if _, err := inst.Call("_start"); err != nil {
		return 0, err
	}
	res, err := inst.Call("checksum")
	if err != nil {
		return 0, err
	}
	return res[0].Bits, nil
}

// diskRequest is one disk_request_ms sample: the same request in a
// process whose memory cache is empty and whose cache directory is
// warm. A compiler invocation on this path fails the sample.
func diskRequest(fx *fixture, m module, o *ops) float64 {
	o.attempted.Add(1)
	o.calls.Add(2)
	t0 := time.Now()
	store, err := engine.OpenDiskCache(fx.diskDir)
	if err != nil {
		o.fail("disk request %s: %v", m.Name, err)
		return 0
	}
	cfg := requestCfg()
	cfg.Cache = codecache.New(codecache.Options{})
	cfg.DiskCache = store
	eng := engine.New(cfg, fx.linker)
	got, err := firstRequest(eng, m)
	d := time.Since(t0)
	switch {
	case err != nil:
		o.fail("disk request %s: %v", m.Name, err)
	case got != m.Want:
		o.fail("disk request %s: checksum %d, want %d", m.Name, got, m.Want)
	case eng.CompileCalls() != 0:
		o.fail("disk request %s: %d compiler invocations over a warm disk cache", m.Name, eng.CompileCalls())
	}
	return ns(d)
}

// coldDiskPhase interleaves cold and disk samples round-robin over the
// modules, so machine drift spreads evenly over both metrics. Each
// sample's fresh engine allocates a 9 MB value stack; whether that
// memory is a span the collector just freed or pages the OS has yet to
// fault in moved a small module's request from 2 ms to 7 within one
// run, so a collection before every sample (outside the timed region)
// puts every sample in the first state.
func coldDiskPhase(fx *fixture, rounds int, o *ops) (cold, disk [][]float64) {
	cold, disk = make([][]float64, len(fx.mods)), make([][]float64, len(fx.mods))
	for r := 0; r < rounds; r++ {
		for mi, m := range fx.mods {
			runtime.GC()
			cold[mi] = append(cold[mi], coldRequest(fx, m, o))
			runtime.GC()
			disk[mi] = append(disk[mi], diskRequest(fx, m, o))
		}
	}
	return cold, disk
}

// execSample times one CallFunc on a reused instance: the reset to the
// post-instantiation snapshot and the result check stay outside the
// timed region. (Timing a freshly instantiated instance instead puts
// first-touch page faults and GC in the region; see README.)
func execSample(u *unit, e entryPoint, want uint64, what string, o *ops) float64 {
	o.attempted.Add(1)
	o.calls.Add(1)
	if err := u.inst.Reset(u.snap); err != nil {
		o.fail("%s: reset: %v", what, err)
		return 0
	}
	t0 := time.Now()
	_, err := u.inst.CallFunc(u.entries[e])
	d := time.Since(t0)
	if err != nil {
		o.fail("%s: %v", what, err)
	} else if got := checksumOf(u.inst); got != want {
		o.fail("%s: checksum %d, want %d", what, got, want)
	}
	return ns(d)
}

// execPhase takes rounds samples of every (engine, module) pair,
// round-robin, calling export e. The result is indexed [engine][module].
func execPhase(fx *fixture, rounds int, e entryPoint, o *ops) [][][]float64 {
	out := make([][][]float64, len(fx.engs))
	for ei := range out {
		out[ei] = make([][]float64, len(fx.mods))
	}
	for r := 0; r < rounds; r++ {
		for ei, ee := range fx.engs {
			for mi, m := range fx.mods {
				what := entryExports[e] + " of " + m.Name + " under " + ee.Cfg.Name
				out[ei][mi] = append(out[ei][mi], execSample(&fx.units[ei][mi], e, m.want(e), what, o))
			}
		}
	}
	return out
}

// clients is W: callers that each wait for their reply (a closed loop).
func clients() int { return min(runtime.NumCPU(), 4) }

// warmTarget is one module's pool in the warm phase, with the index of
// its _start export so a request resolves the function without a lookup.
type warmTarget struct {
	pool  *engine.InstancePool
	mod   module
	start uint32
}

// warmTargets builds one pool per module over the fixture's wizeng-spc
// compile, capacity W, and runs warmup requests through each.
func warmTargets(fx *fixture, warmup int, o *ops) []warmTarget {
	targets := make([]warmTarget, len(fx.mods))
	for mi, m := range fx.mods {
		u := &fx.units[spcEngine][mi]
		targets[mi] = warmTarget{pool: u.cm.NewPool(clients()), mod: m, start: u.entries[entryStart].Idx}
		for i := 0; i < warmup; i++ {
			warmRequest(&targets[mi], o)
		}
	}
	return targets
}

func closePools(targets []warmTarget) {
	for _, t := range targets {
		t.pool.Close()
	}
}

// warmRequest is one pooled request, Get to Put, checked after Put,
// outside the timed region.
func warmRequest(t *warmTarget, o *ops) float64 {
	t0 := time.Now()
	inst, err := t.pool.Get()
	if err != nil {
		o.attempted.Add(1)
		o.fail("warm request %s: get: %v", t.mod.Name, err)
		return 0
	}
	_, err = inst.CallFunc(inst.RT.Funcs[t.start])
	got := checksumOf(inst)
	t.pool.Put(inst)
	d := time.Since(t0)
	o.attempted.Add(1)
	o.calls.Add(1)
	if err != nil {
		o.fail("warm request %s: %v", t.mod.Name, err)
	} else if got != t.mod.Want {
		o.fail("warm request %s: checksum %d, want %d", t.mod.Name, got, t.mod.Want)
	}
	return ns(d)
}

// warmTrial is one closed-loop trial: W clients cycle over the modules'
// pools for dur. It returns the per-module latencies and the requests
// completed per second.
func warmTrial(targets []warmTarget, dur time.Duration, o *ops) (lat [][]float64, rps float64) {
	w := clients()
	perClient := make([][][]float64, w)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := 0; c < w; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make([][]float64, len(targets))
			for i := c; ; i++ {
				mi := i % len(targets)
				mine[mi] = append(mine[mi], warmRequest(&targets[mi], o))
				if time.Now().After(deadline) {
					break
				}
			}
			perClient[c] = mine
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	lat = make([][]float64, len(targets))
	total := 0
	for _, mine := range perClient {
		for mi, xs := range mine {
			lat[mi] = append(lat[mi], xs...)
			total += len(xs)
		}
	}
	return lat, float64(total) / elapsed
}
