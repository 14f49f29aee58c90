// Command bench is the repository's benchmark: one run, five workloads,
// end-to-end request metrics with per-layer attribution. It generates
// its inputs from a seed, measures every layer from outside through the
// packages' public functions and exported counters, checks every result
// against an expected value, and prints every metric by name. One
// workload's one pass is measured per process; a wider invocation runs
// each in a child process of the same binary and aggregates.
//
//	go run ./bench -seed 1                      all workloads, both passes
//	go run ./bench -workload kernels -trace 0   one workload, end-to-end pass
//	go run ./bench -noise 3 -out noise.json     run-to-run spread per metric
//	go run ./bench -compare old.json new.json   verdict per workload × metric
//
// See README.md in this directory for the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all five)")
		seed         = flag.Int64("seed", 1, "seed the inputs are generated from")
		trace        = flag.String("trace", "", "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
		spansPath    = flag.String("spans", "", "write the traced pass's spans to this file as JSON")
		outPath      = flag.String("out", "", "also write the report to this file")
		quick        = flag.Bool("quick", false, "tiny modules and counts, for tests; numbers are not comparable")
		noise        = flag.Int("noise", 0, "run the benchmark K times (seeds seed..seed+K-1) and report each metric's spread against its bound")
		compare      = flag.Bool("compare", false, "compare two report files: bench -compare old.json new.json")
		golden       = flag.String("golden", "", "regenerate the suite checksums into this file and exit")
		tmpBase      = flag.String("tmp", ".bench_tmp", "directory for disk-cache scratch, removed at exit")
	)
	// The driver passes BENCHMARK.json's run_seconds with every run. The
	// sample counts are fixed, so the value changes nothing.
	flag.Float64("seconds", runSeconds, "accepted and ignored: the sample counts are fixed")
	flag.Parse()

	switch {
	case *golden != "":
		exitOn(writeGolden(*golden))
		return
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("bench: -compare takes two report files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if !ok {
			os.Exit(1)
		}
		return
	}

	selected, err := selectWorkloads(*workloadName)
	exitOn(err)
	if *trace != "" && *trace != "0" && *trace != "1" {
		exitOn(fmt.Errorf("bench: -trace takes 0 or 1"))
	}
	// A leaf measures one workload's one pass in this process; anything
	// wider runs each leaf in a child process and only aggregates.
	leaf := *workloadName != "" && *trace != "" && *noise == 0
	if *spansPath != "" && !(leaf && *trace == "1") {
		exitOn(fmt.Errorf("bench: -spans needs -workload and -trace 1"))
	}
	tmp := filepath.Join(*tmpBase, fmt.Sprintf("run-%d", os.Getpid()))
	exitOn(os.MkdirAll(tmp, 0o755))
	cfg := runConfig{Seed: *seed, Quick: *quick, Tmp: tmp}

	file := benchFile{Schema: schemaName}
	if leaf {
		var rep *workloadReport
		var spans []span
		if *trace == "0" {
			rep, err = runUntraced(&selected[0], cfg)
		} else {
			rep, spans, err = runTraced(&selected[0], cfg)
		}
		if err == nil && *spansPath != "" {
			err = writeSpans(*spansPath, spans)
		}
		if err == nil {
			run := newRunReport(cfg)
			run.Workloads = []workloadReport{*rep}
			file.Runs = []runReport{run}
		}
	} else {
		for k := 0; k < max(*noise, 1) && err == nil; k++ {
			var run runReport
			cfg.Seed = *seed + int64(k)
			run, err = runInChildren(selected, cfg, *trace)
			file.Runs = append(file.Runs, run)
		}
	}
	// Remove the scratch directory before reporting, error or not.
	if rmErr := os.RemoveAll(tmp); err == nil {
		err = rmErr
	}
	os.Remove(*tmpBase) // only succeeds once the last concurrent run has left
	exitOn(err)

	withinBounds := true
	if *noise > 0 {
		file.Noise = noiseRows(&file)
	}
	data, err := json.MarshalIndent(file, "", " ")
	exitOn(err)
	if *outPath != "" {
		exitOn(os.WriteFile(*outPath, append(data, '\n'), 0o644))
	}
	if *noise > 0 {
		withinBounds = printNoise(os.Stdout, file.Noise)
	} else {
		fmt.Println(string(data))
	}

	failed := int64(0)
	for _, run := range file.Runs {
		for _, w := range run.Workloads {
			failed += w.OpsFailed
			for _, msg := range w.Failures {
				fmt.Fprintf(os.Stderr, "bench: %s: failed op: %s\n", w.Name, msg)
			}
		}
	}
	if leaf {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		fmt.Println(contractLine(file.Runs[0].Workloads[0]))
	}
	if failed > 0 || !withinBounds {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func selectWorkloads(name string) ([]workload, error) {
	all := allWorkloads()
	if name == "" {
		return all, nil
	}
	for _, w := range all {
		if w.Name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("bench: no workload %q", name)
}

func newRunReport(cfg runConfig) runReport {
	return runReport{Seed: cfg.Seed, Quick: cfg.Quick,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Clients: clients()}
}

// runInChildren runs the selected workloads once — the untraced pass,
// the traced pass, or (trace == "") both — each pass in a fresh child
// process of this binary, as the driver runs it. A process that has
// already measured something hands the next measurement its heap: cold
// requests read 60% slower in the third run inside one process than in
// the first, however the allocator was primed.
func runInChildren(selected []workload, cfg runConfig, trace string) (runReport, error) {
	run := newRunReport(cfg)
	exe, err := os.Executable()
	if err != nil {
		return run, err
	}
	passes := []string{"0", "1"}
	if trace != "" {
		passes = []string{trace}
	}
	for _, w := range selected {
		for _, pass := range passes {
			out := filepath.Join(cfg.Tmp, "child.json")
			args := []string{"-workload", w.Name, "-trace", pass, "-seed", fmt.Sprint(cfg.Seed),
				"-tmp", filepath.Join(cfg.Tmp, "children"), "-out", out}
			if cfg.Quick {
				args = append(args, "-quick")
			}
			child := exec.Command(exe, args...)
			child.Stderr = os.Stderr
			runErr := child.Run()
			// A child that saw failed ops exits non-zero but still writes
			// its report; one that wrote none failed outright.
			f, err := readBenchFile(out)
			if err != nil {
				return run, fmt.Errorf("bench: %s pass %s: %w (child: %v)", w.Name, pass, err, runErr)
			}
			if err := os.Remove(out); err != nil {
				return run, err
			}
			run.Workloads = append(run.Workloads, f.Runs[0].Workloads...)
		}
	}
	return run, nil
}

// contractLine renders one workload's pass the way the driver reads it.
func contractLine(w workloadReport) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, m := range w.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.OpsFailed == 0, w.OpsAttempted, w.OpsFailed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}
