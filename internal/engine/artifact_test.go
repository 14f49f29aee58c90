package engine_test

import (
	"os"
	"path/filepath"
	"testing"

	"wizgo/internal/codecache"
	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/workloads"
)

// seedDir compiles item under cfg with a fresh cache and a disk tier on
// dir, runs the module, and returns its checksum. After it returns, dir
// holds exactly the artifact a restarted process would find.
func seedDir(t *testing.T, cfg engine.Config, item workloads.Item, dir string) int64 {
	t.Helper()
	cfg.Cache = codecache.New(codecache.Options{})
	disk, err := engine.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DiskCache = disk
	cm, err := engine.New(cfg, nil).Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	sum := runChecksum(t, cm)
	if st := disk.Stats(); st.Writes != 1 {
		t.Fatalf("seed disk writes = %d, want 1", st.Writes)
	}
	return sum
}

// coldCompile simulates a process restart: a fresh engine, an empty
// memory cache and a new disk handle on the same directory.
func coldCompile(t *testing.T, cfg engine.Config, item workloads.Item, dir string) (*engine.Engine, *engine.CompiledModule, *codecache.DiskStore) {
	t.Helper()
	cfg.Cache = codecache.New(codecache.Options{})
	disk, err := engine.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DiskCache = disk
	e := engine.New(cfg, nil)
	cm, err := e.Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	return e, cm, disk
}

func runChecksum(t *testing.T, cm *engine.CompiledModule) int64 {
	t.Helper()
	inst, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Release()
	if _, err := inst.Call("_start"); err != nil {
		t.Fatal(err)
	}
	got, err := inst.Call("checksum")
	if err != nil {
		t.Fatal(err)
	}
	return got[0].I64()
}

// TestArtifactColdReload is the zero-compile contract end to end, for a
// machine-code tier and a rewriting-interpreter tier (the two concrete
// code representations the artifact format carries): seed a cache dir,
// restart, and demand that the first Compile of the new process invokes
// the tier compiler zero times, is served entirely by rehydration, and
// yields an instance computing the exact same checksum.
func TestArtifactColdReload(t *testing.T) {
	item := workloads.Ostrich()[3] // crc: small and fast
	for _, cfg := range []engine.Config{engines.WizardSPC(), engines.Wasm3Like()} {
		t.Run(cfg.Name, func(t *testing.T) {
			dir := t.TempDir()
			want := seedDir(t, cfg, item, dir)

			e, cm, disk := coldCompile(t, cfg, item, dir)
			if n := e.CompileCalls(); n != 0 {
				t.Errorf("cold process invoked the compiler %d times, want 0", n)
			}
			st := disk.Stats()
			if st.Hits != 1 || st.Misses != 0 || st.Writes != 0 {
				t.Errorf("cold disk stats = %+v, want exactly one hit", st)
			}
			// The cold pipeline is rehydration only: no validation pass,
			// no compile pass.
			if cm.Timings.Rehydrate <= 0 {
				t.Error("cold load recorded no rehydration time")
			}
			if cm.Timings.Validate != 0 || cm.Timings.Compile != 0 {
				t.Errorf("cold load ran validate (%v) / compile (%v), want neither",
					cm.Timings.Validate, cm.Timings.Compile)
			}
			if got := runChecksum(t, cm); got != want {
				t.Errorf("cold checksum %#x != seed %#x (artifact loaded wrong code)", got, want)
			}
		})
	}
}

// TestArtifactColdReloadLazyTier: a lazy configuration compiles nothing
// eagerly, so its artifact carries only the sidetables, max stack
// heights and read-only bits — the cold process must still reload it,
// skip function validation, and compile per instance on first call
// exactly like the seed did.
func TestArtifactColdReloadLazyTier(t *testing.T) {
	item := workloads.Ostrich()[3]
	cfg := engines.WizardTiered(100)
	dir := t.TempDir()
	want := seedDir(t, cfg, item, dir)

	_, cm, disk := coldCompile(t, cfg, item, dir)
	if cm.Codes != nil {
		t.Error("lazy artifact rehydrated eager code")
	}
	if st := disk.Stats(); st.Hits != 1 {
		t.Errorf("cold disk stats = %+v, want a hit", st)
	}
	if cm.Timings.Validate != 0 {
		t.Errorf("cold load ran validation (%v)", cm.Timings.Validate)
	}
	if got := runChecksum(t, cm); got != want {
		t.Errorf("lazy cold checksum %#x != seed %#x", got, want)
	}
}

// TestArtifactDeterministic: one module compiled twice must produce
// byte-identical artifacts — content-addressed stores dedupe on the
// bytes, and map iteration order or nondeterministic parallel compile
// order leaking into the encoding would silently break that.
func TestArtifactDeterministic(t *testing.T) {
	item := workloads.PolyBench()[0]
	read := func(dir string) []byte {
		matches, err := filepath.Glob(filepath.Join(dir, "*.wzc"))
		if err != nil || len(matches) != 1 {
			t.Fatalf("artifacts in %s: %v (err %v)", dir, matches, err)
		}
		data, err := os.ReadFile(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	cfg := engines.WizardSPC()
	cfg.CompileWorkers = 8 // parallel compile must not perturb the encoding
	dirA, dirB := t.TempDir(), t.TempDir()
	seedDir(t, cfg, item, dirA)
	seedDir(t, cfg, item, dirB)
	a, b := read(dirA), read(dirB)
	if string(a) != string(b) {
		t.Errorf("two compiles of one module produced different artifacts (%d vs %d bytes)", len(a), len(b))
	}
}

// TestArtifactCorruptFallsBackToCompile: a cold process facing a
// damaged artifact must transparently recompile — same checksum, one
// compiler invocation, corruption counted — because a cache dir that
// can break cold starts is worse than no cache dir.
func TestArtifactCorruptFallsBackToCompile(t *testing.T) {
	item := workloads.Ostrich()[3]
	cfg := engines.WizardSPC()
	dir := t.TempDir()
	want := seedDir(t, cfg, item, dir)

	matches, err := filepath.Glob(filepath.Join(dir, "*.wzc"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("artifacts: %v (err %v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	e, cm, disk := coldCompile(t, cfg, item, dir)
	if n := e.CompileCalls(); n == 0 {
		t.Error("cold process served a corrupt artifact without recompiling")
	}
	st := disk.Stats()
	if st.CorruptEvictions != 1 {
		t.Errorf("CorruptEvictions = %d, want 1", st.CorruptEvictions)
	}
	if st.Writes != 1 {
		t.Errorf("Writes = %d, want 1 (clean republish after recompile)", st.Writes)
	}
	if got := runChecksum(t, cm); got != want {
		t.Errorf("recompiled checksum %#x != seed %#x", got, want)
	}
}

// TestArtifactCarriesFacts: the read-only bits must survive the disk
// round-trip bit-for-bit, so a cold process skips exactly the memory
// resets the seed proved skippable — without rerunning the analysis.
func TestArtifactCarriesFacts(t *testing.T) {
	item := workloads.PolyBench()[0] // gemm: writing kernels plus a load-only checksum
	cfg := engines.WizardSPC()
	dir := t.TempDir()

	wcfg := cfg
	wcfg.Cache = codecache.New(codecache.Options{})
	disk, err := engine.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	wcfg.DiskCache = disk
	warm, err := engine.New(wcfg, nil).Compile(item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	want := warm.AnalysisStats()
	if want.ReadOnly == 0 || want.ReadOnly == want.Funcs {
		t.Fatalf("seed compile should find both read-only and writing functions on gemm: %+v", want)
	}

	_, cold, _ := coldCompile(t, cfg, item, dir)
	if got := cold.AnalysisStats(); got != want {
		t.Errorf("rehydrated analysis stats %+v != seed %+v", got, want)
	}
	if cold.Timings.Analyze != 0 {
		t.Errorf("cold load ran the analysis (%v), facts should come from the artifact", cold.Timings.Analyze)
	}
	for i := range cold.Infos {
		if w, c := warm.Infos[i].ReadOnly, cold.Infos[i].ReadOnly; w != c {
			t.Errorf("func %d: ReadOnly %v became %v after round-trip", i, w, c)
		}
	}
}
