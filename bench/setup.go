package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/rt"
)

// execEngine is one of the five executors exec_ms.* is reported for;
// Key is the metric suffix.
type execEngine struct {
	Key string
	Cfg engine.Config
}

// serial pins compilation to one worker, the paper's method.
func serial(cfg engine.Config) engine.Config {
	cfg.CompileWorkers = 1
	return cfg
}

func execEngines() []execEngine {
	return []execEngine{
		{"int", serial(engines.WizardINT())},
		{"spc", serial(engines.WizardSPC())},
		{"rewriter", serial(engines.Wasm3Like())},
		{"copypatch", serial(engines.WasmNowLike())},
		{"opt", serial(engines.TurboFanLike())},
	}
}

// spcEngine indexes wizeng-spc in execEngines: the fixture's compile of
// it backs the pools and the instance-layer measurements.
const spcEngine = 1

// requestCfg is the preset every request-path metric uses: what
// examples/serving deploys.
func requestCfg() engine.Config { return serial(engines.WizardSPC()) }

// ops counts checked operations: every request or call whose result is
// compared with the expected value. An error, a trap, a wrong checksum
// or a compile on the disk path is a failed op.
type ops struct {
	attempted, failed atomic.Int64
	// calls counts top-level guest calls the benchmark made, to be held
	// against the program's own execute histogram.
	calls atomic.Int64

	mu       sync.Mutex
	failures []string
}

func (o *ops) fail(format string, args ...any) {
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// unit is one (engine, module) pair ready to execute: compiled,
// instantiated once, with the snapshot every exec sample resets to.
type unit struct {
	cm   *engine.CompiledModule
	inst *engine.Instance
	snap *engine.Snapshot
	// entries resolves each entryPoint; the controls are nil unless the
	// workload has them.
	entries [numEntries]*rt.FuncInst
}

// fixture is what set-up leaves for the measured phases.
type fixture struct {
	w       *workload
	mods    []module
	linker  *engine.Linker
	engs    []execEngine
	units   [][]unit // [engine][module]
	diskDir string   // holds each module's wizeng-spc artifact
}

// checksumOf reads the result of the last _start without another guest
// call: global 0 is the checksum accumulator in every module (set-up
// verifies that against the checksum export).
func checksumOf(inst *engine.Instance) uint64 { return inst.RT.Globals[0].Bits }

// setUp is the benchmark set-up for one workload, the region setup_s
// times: generate the modules, compile each under the five exec
// engines, verify every engine against the expected value, and warm the
// disk-cache directory with the request preset's artifacts.
func setUp(w *workload, seed int64, quick bool, diskDir string, o *ops) (*fixture, error) {
	mods, linker, err := w.Gen(seed, quick)
	if err != nil {
		return nil, err
	}
	fx := &fixture{w: w, mods: mods, linker: linker, engs: execEngines(), diskDir: diskDir}
	for _, ee := range fx.engs {
		eng := engine.New(ee.Cfg, linker)
		row := make([]unit, len(mods))
		for mi, m := range mods {
			u, err := newUnit(eng, m, w.HasControls)
			if err != nil {
				return nil, fmt.Errorf("bench: %s under %s: %w", m.Name, ee.Cfg.Name, err)
			}
			o.attempted.Add(1)
			o.calls.Add(2)
			if _, err := u.inst.CallFunc(u.entries[entryStart]); err != nil {
				return nil, fmt.Errorf("bench: %s under %s: %w", m.Name, ee.Cfg.Name, err)
			}
			res, err := u.inst.Call("checksum")
			if err != nil {
				return nil, fmt.Errorf("bench: %s under %s: %w", m.Name, ee.Cfg.Name, err)
			}
			if got := res[0].Bits; got != m.Want || checksumOf(u.inst) != m.Want {
				o.fail("%s under %s: checksum %d (global 0: %d), want %d",
					m.Name, ee.Cfg.Name, got, checksumOf(u.inst), m.Want)
			}
			if err := u.inst.Reset(u.snap); err != nil {
				return nil, fmt.Errorf("bench: %s under %s: %w", m.Name, ee.Cfg.Name, err)
			}
			row[mi] = u
		}
		fx.units = append(fx.units, row)
	}

	if err := os.MkdirAll(diskDir, 0o755); err != nil {
		return nil, err
	}
	store, err := engine.OpenDiskCache(diskDir)
	if err != nil {
		return nil, err
	}
	cfg := requestCfg()
	cfg.DiskCache = store
	seeder := engine.New(cfg, linker)
	for _, m := range mods {
		if _, err := seeder.Compile(m.Bytes); err != nil {
			return nil, fmt.Errorf("bench: seeding disk cache with %s: %w", m.Name, err)
		}
	}
	if got := int(store.Stats().Writes); got != len(mods) {
		return nil, fmt.Errorf("bench: disk cache holds %d artifacts after seeding, want %d", got, len(mods))
	}
	return fx, nil
}

func newUnit(eng *engine.Engine, m module, controls bool) (unit, error) {
	cm, err := eng.Compile(m.Bytes)
	if err != nil {
		return unit{}, err
	}
	inst, err := cm.Instantiate()
	if err != nil {
		return unit{}, err
	}
	u := unit{cm: cm, inst: inst, snap: inst.Snapshot()}
	// Track writes as a pooled instance does (InstancePool.newInstance),
	// so Reset copies back only what a request dirtied and stores pay
	// the Mark hook they pay in serving.
	if inst.RT.OwnsMemory {
		inst.RT.Memory.EnableWriteTracking()
	}
	for e, export := range entryExports {
		if entryPoint(e) != entryStart && !controls {
			continue
		}
		f, ok := inst.RT.FuncByName(export)
		if !ok {
			return unit{}, fmt.Errorf("no %s export", export)
		}
		u.entries[e] = f
	}
	return u, nil
}

// timedSetUps runs set-up reps times, each into its own disk directory,
// and returns the last fixture with every repetition's duration. The
// collection before each repetition clears the previous one's garbage,
// so each starts from the same allocator state.
func timedSetUps(w *workload, seed int64, quick bool, tmp string, reps int, o *ops) (*fixture, []float64, error) {
	var fx *fixture
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := setUp(w, seed, quick, fmt.Sprintf("%s/%s-disk-%d", tmp, w.Name, i), o)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		fx = f
	}
	return fx, secs, nil
}
