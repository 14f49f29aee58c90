// Command wizgo runs a WebAssembly module under a selectable execution
// tier, the equivalent of the paper's research engine CLI.
//
// Usage:
//
//	wizgo [-tier wizeng-spc] [-invoke name] [-instances N] [-compile-workers N] [-pool [-pool-size N]] [-cache-dir dir] [-stats [-json]] [-profile N] [-timeout 2s] module.wasm [args...]
//
// The module is compiled once (per-function compilation fans out over
// -compile-workers cores) and then instantiated -instances times from
// the shared artifact, reporting the compile and instantiate phases
// separately. With -pool, the runs are served from an instance pool
// instead: finished instances are recycled and reset copy-on-write, so
// each run after the first pays reset cost proportional to what the
// previous run wrote, not a full instantiation.
//
// Tiers: any name from `wizgo -list`, e.g. wizeng-int, wizeng-spc,
// wizeng-tiered, v8-liftoff, sm-base, wasmer-base, wazero, wasm-now,
// wasm3, v8-turbofan, wasmtime, wavm, ...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"wizgo/internal/codecache"
	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/mach"
	"wizgo/internal/monitors"
	"wizgo/internal/telemetry"
	"wizgo/internal/wasm"
)

func main() {
	tier := flag.String("tier", "wizeng-spc", "execution tier")
	invoke := flag.String("invoke", "_start", "exported function to call")
	list := flag.Bool("list", false, "list available tiers")
	disasm := flag.Bool("disasm", false, "print compiled code of the invoked function")
	branches := flag.Bool("monitor-branches", false, "attach the branch monitor and report after the run")
	workers := flag.Int("compile-workers", 0, "per-function compile workers (0 = all cores, 1 = serial)")
	instances := flag.Int("instances", 1, "instantiate the compiled module N times and run each")
	usePool := flag.Bool("pool", false, "serve the -instances runs from an instance pool (recycle + copy-on-write reset) instead of fresh links")
	poolSize := flag.Int("pool-size", 0, "idle instances the pool retains (0 = default)")
	timeout := flag.Duration("timeout", 0, "per-call deadline; a run exceeding it is interrupted cleanly (0 = no deadline)")
	fuel := flag.Int64("fuel", 0, "per-call fuel budget: one unit per function entry and loop iteration; exhaustion traps deterministically (0 = unlimited)")
	cacheDir := flag.String("cache-dir", "", "persistent code cache directory; a warm cache serves Compile from disk with zero compiler invocations")
	stats := flag.Bool("stats", false, "report the unified telemetry snapshot (cache, pool, compile/link/execute histograms, traps) after the run")
	statsJSON := flag.Bool("json", false, "with -stats, write the snapshot as JSON to stdout instead of text to stderr")
	profileTop := flag.Int("profile", 0, "attach the execution profiler and report the top-N hot functions after each run")
	flag.Parse()

	if *list {
		for _, c := range engines.SQSpaceTiers() {
			fmt.Printf("%-14s (%s)\n", c.Name, engines.TierClass(c.Name))
		}
		fmt.Printf("%-14s (%s)\n", "wizeng-tiered", "tiered: interpreter + OSR to SPC")
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: wizgo [flags] module.wasm [args...]")
		os.Exit(2)
	}

	cfg, ok := engines.ByName(*tier)
	if !ok {
		fmt.Fprintf(os.Stderr, "wizgo: unknown tier %q (try -list)\n", *tier)
		os.Exit(2)
	}
	cfg.CompileWorkers = *workers
	var cache *codecache.Cache
	if *cacheDir != "" || *stats {
		// A cache handle of our own lets -stats report the memory and
		// disk counters after the run (engine.New would otherwise
		// create one privately).
		cache = codecache.New(codecache.Options{})
		cfg.Cache = cache
	}
	if *cacheDir != "" {
		disk, err := engine.OpenDiskCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cfg.DiskCache = disk
	}
	bytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	// Compile once; every instance below links against this artifact.
	eng := engine.New(cfg, nil)
	t0 := time.Now()
	cm, err := eng.Compile(bytes)
	if err != nil {
		fatal(err)
	}
	compileWall := time.Since(t0)

	if *instances < 1 {
		*instances = 1
	}

	// Resolve the export and parse arguments once, before any instance
	// exists: the function type is a property of the compiled module.
	fidx, ok := cm.Module.ExportedFunc(*invoke)
	if !ok {
		fatal(fmt.Errorf("no exported function %q", *invoke))
	}
	ftype, err := cm.Module.FuncTypeAt(fidx)
	if err != nil {
		fatal(err)
	}
	args := make([]wasm.Value, flag.NArg()-1)
	for i, a := range flag.Args()[1:] {
		if i >= len(ftype.Params) {
			fatal(fmt.Errorf("too many arguments for %s %v", *invoke, ftype))
		}
		v, err := parseArg(ftype.Params[i], a)
		if err != nil {
			fatal(err)
		}
		args[i] = v
	}

	var pool *engine.InstancePool
	if *usePool {
		if *branches || *profileTop > 0 {
			// Probes persist across pooled recycling, so re-attaching a
			// monitor every request would stack duplicate probes.
			fatal(fmt.Errorf("-pool and -monitor-branches/-profile are mutually exclusive"))
		}
		pool = cm.NewPool(*poolSize)
		defer pool.Close()
	}

	var instantiateWall time.Duration
	for n := 0; n < *instances; n++ {
		t1 := time.Now()
		var inst *engine.Instance
		var err error
		if pool != nil {
			inst, err = pool.Get()
		} else {
			inst, err = cm.Instantiate()
		}
		if err != nil {
			fatal(err)
		}
		instantiateWall += time.Since(t1)

		var mon *monitors.BranchMonitor
		if *branches {
			if mon, err = monitors.AttachBranchMonitor(inst); err != nil {
				fatal(err)
			}
		}
		var prof *monitors.Profiler
		if *profileTop > 0 {
			if prof, err = monitors.AttachProfiler(inst); err != nil {
				fatal(err)
			}
		}
		f := inst.RT.Funcs[fidx]

		if *disasm && n == 0 {
			if code, ok := f.Compiled.(*mach.Code); ok {
				fmt.Printf("; %s (%s), %d instructions\n%s\n",
					f.Name, cfg.Name, len(code.Instrs), code.Disassemble())
			} else {
				fmt.Fprintf(os.Stderr, "wizgo: %s has no MachCode under tier %s\n", f.Name, cfg.Name)
			}
		}

		callCtx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			callCtx, cancel = context.WithTimeout(callCtx, *timeout)
		}
		results, err := inst.CallFuncWith(callCtx, engine.CallOpts{Fuel: *fuel}, f, args...)
		cancel() // release the deadline timer before the next instance
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			fmt.Println(r)
		}
		if mon != nil {
			fmt.Print(mon.Report(10))
		}
		if prof != nil {
			fmt.Print(prof.Report(*profileTop))
		}
		if pool != nil {
			pool.Put(inst) // recycle the whole instance for the next run
		} else {
			inst.Release() // recycle the value stack for the next instance
		}
	}
	if cm.Timings.Rehydrate > 0 {
		fmt.Fprintf(os.Stderr, "compile: %v (decode %v, rehydrate %v — loaded from disk cache), code %d bytes\n",
			compileWall, cm.Timings.Decode, cm.Timings.Rehydrate, cm.Timings.CodeBytes)
	} else {
		fmt.Fprintf(os.Stderr, "compile: %v (decode %v, module checks %v, validate+compile %v, analyze %v), code %d bytes\n",
			compileWall, cm.Timings.Decode, cm.Timings.Validate, cm.Timings.Compile,
			cm.Timings.Analyze, cm.Timings.CodeBytes)
	}
	if st := cm.AnalysisStats(); st.Funcs > 0 {
		fmt.Fprintf(os.Stderr, "analysis: %d/%d functions read-only\n", st.ReadOnly, st.Funcs)
	}
	if pool != nil {
		st := pool.Stats()
		fmt.Fprintf(os.Stderr, "pool: %v total across %d get(s): %d hits, %d misses (mean %v); resets %d on-put (mean %v) / %d on-get (mean %v), max %v\n",
			instantiateWall, *instances, st.Hits, st.Misses, st.MeanMiss(),
			st.ResetsOnPut, st.MeanResetOnPut(),
			st.ResetsOnGet, st.MeanResetOnGet(), st.ResetMax)
	} else {
		fmt.Fprintf(os.Stderr, "instantiate: %v total across %d instance(s)\n",
			instantiateWall, *instances)
	}
	if *stats {
		// One unified snapshot covers what used to be separate cache,
		// pool, and compiler-invocation reports: every producer in the
		// process (memory + disk cache, pool, compile/link/execute
		// histograms, trap counters) feeds the same registry.
		snap := telemetry.Default().Snapshot()
		if *statsJSON {
			if err := snap.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			fmt.Fprintln(os.Stderr, "telemetry:")
			snap.WriteText(os.Stderr)
		}
	}
}

func parseArg(t wasm.ValueType, s string) (wasm.Value, error) {
	switch t {
	case wasm.I32:
		v, err := strconv.ParseInt(s, 0, 32)
		if err != nil {
			return wasm.Value{}, err
		}
		return wasm.ValI32(int32(v)), nil
	case wasm.I64:
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return wasm.Value{}, err
		}
		return wasm.ValI64(v), nil
	case wasm.F32:
		v, err := strconv.ParseFloat(s, 32)
		if err != nil {
			return wasm.Value{}, err
		}
		return wasm.ValF32(float32(v)), nil
	case wasm.F64:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return wasm.Value{}, err
		}
		return wasm.ValF64(v), nil
	}
	return wasm.Value{}, fmt.Errorf("cannot parse %q as %v", s, t)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wizgo:", err)
	os.Exit(1)
}
