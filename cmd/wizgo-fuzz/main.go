// Command wizgo-fuzz drives the differential testing engine from the
// command line, in one of two modes over the same oracle
// (internal/difftest): every module runs under every configuration of a
// matrix, fresh, again after a pooled reset and again from a disk-cache
// artifact, and is compared on call results, final memory and globals.
//
// Fuzz mode (the default) generates structure-aware modules and
// cross-executes each one through engines.DifferentialMatrix(). With
// -minimize, diverging modules are shrunk and written into a corpus
// directory as self-contained reproducers.
//
// Suite mode (-suite all, or one suite's name) runs the workload line
// items the figures are measured on, and their early-return (m0)
// variants, through engines.FullMatrix(): every configuration any figure
// uses (the job of the former checksum verifier). A suite item must also
// finish within -deadline and leave a non-zero checksum (zero for m0).
//
// The command also retains the module-writing mode of its predecessor
// (wasmgen): -write-modules dumps the deterministic workload modules of
// internal/workloads to disk as .wasm files, so they can be inspected
// with external tools or fed to other engines.
//
// Usage:
//
//	wizgo-fuzz [-n 500] [-seed 1] [-invalid 0.2] [-deadline 2s]
//	           [-minimize] [-corpus DIR] [-json]
//	wizgo-fuzz -suite all|polybench|libsodium|ostrich [-deadline 2s] [-json]
//	wizgo-fuzz -write-modules [-out ./modules] [-m0]
//
// The seed is an explicit flag (default 1) so runs are reproducible:
// the same seed always generates the same modules. CI runs a fixed
// seed; local exploration varies it by hand.
//
// Exit status is nonzero when any divergence was found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"wizgo/internal/difftest"
	"wizgo/internal/engines"
	"wizgo/internal/workloads"
)

type summary struct {
	Ran         int      `json:"ran"`
	Invalid     int      `json:"invalid"`
	Divergences int      `json:"divergences"`
	Configs     []string `json:"configs"`
	Reproducers []string `json:"reproducers,omitempty"`
}

func main() {
	n := flag.Int("n", 500, "number of generated modules to cross-execute")
	seed := flag.Int64("seed", 1, "base generator seed (runs are deterministic per seed)")
	invalid := flag.Float64("invalid", 0.2, "fraction of iterations that additionally test a mutated (usually invalid) module")
	deadline := flag.Duration("deadline", 2*time.Second, "per-call execution deadline (safety net)")
	fuel := flag.Int64("fuel", 0, "per-call fuel budget (0 = unlimited); exhaustion must agree across all configs")
	minimize := flag.Bool("minimize", false, "minimize diverging modules and write reproducers into -corpus")
	corpus := flag.String("corpus", "internal/difftest/corpus", "reproducer directory for -minimize")
	jsonOut := flag.Bool("json", false, "print the run summary as JSON")
	suite := flag.String("suite", "", "instead of fuzzing, run the workload suite (all, polybench, libsodium or ostrich) and its m0 variants through the 30-config engines.FullMatrix()")

	writeModules := flag.Bool("write-modules", false, "write the workload modules to -out instead of fuzzing")
	out := flag.String("out", "modules", "output directory for -write-modules")
	emitM0 := flag.Bool("m0", false, "with -write-modules, also write the early-return (m0) variants")
	flag.Parse()

	if *writeModules {
		writeWorkloadModules(*out, *emitM0)
		return
	}

	if *suite != "" {
		runSuite(*suite, *deadline, *fuel, *jsonOut)
		return
	}

	o := difftest.NewOracle()
	o.Deadline = *deadline
	o.Fuel = *fuel
	sum := summary{Configs: o.Configs()}
	mutRand := rand.New(rand.NewSource(*seed))

	fail := func(g difftest.Generated, outs []difftest.EngineOutcome, d *difftest.Divergence) {
		sum.Divergences++
		fmt.Fprintf(os.Stderr, "%v\n%s", d, difftest.OutcomeTable(outs))
		if !*minimize {
			return
		}
		min := difftest.Minimize(g, o.Diverges)
		mouts, md := o.Run(min)
		note := d.Error()
		if md != nil {
			note = md.Error()
		}
		path, err := difftest.WriteReproducer(*corpus, min, note, difftest.OutcomeTable(mouts))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wizgo-fuzz: write reproducer:", err)
			return
		}
		fmt.Fprintln(os.Stderr, "wizgo-fuzz: wrote", path)
		sum.Reproducers = append(sum.Reproducers, path)
	}

	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		g := difftest.Generate(s, difftest.GenConfig{})
		sum.Ran++
		if outs, d := o.Run(g); d != nil {
			fail(g, outs, d)
		}
		if mutRand.Float64() < *invalid {
			mut := difftest.MutateInvalid(mutRand, g.Bytes)
			mg := difftest.Generated{Seed: s, Bytes: mut, Calls: difftest.DeriveCalls(mut)}
			sum.Invalid++
			if outs, d := o.Run(mg); d != nil {
				fail(mg, outs, d)
			}
		}
	}
	report(sum, fmt.Sprintf("%d generated + %d mutated modules", sum.Ran, sum.Invalid), *jsonOut)
}

// runSuite is suite mode: the selected line items and their m0 variants
// through engines.FullMatrix(), under the suite contract of
// difftest.Oracle.RunSuite.
func runSuite(suite string, deadline time.Duration, fuel int64, jsonOut bool) {
	items, err := workloads.Select(suite, 0)
	if err != nil {
		fatal(err)
	}
	o := difftest.NewOracleFor(engines.FullMatrix())
	o.Deadline = deadline
	o.Fuel = fuel
	sum := summary{Configs: o.Configs()}
	for _, m := range difftest.SuiteModules(items) {
		sum.Ran++
		if outs, d := o.RunSuite(m); d != nil {
			sum.Divergences++
			fmt.Fprintf(os.Stderr, "%s: %v\n%s", m.Name, d, difftest.OutcomeTable(outs))
		}
	}
	report(sum, fmt.Sprintf("%d suite modules (%d line items and their m0 variants)", sum.Ran, len(items)), jsonOut)
}

// report prints the run summary — ran says in words what sum.Ran counted
// — and exits non-zero when anything diverged.
func report(sum summary, ran string, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("wizgo-fuzz: %s across %d configs (each rerun after reset and from a disk-cache artifact): %d divergences\n",
			ran, len(sum.Configs), sum.Divergences)
	}
	if sum.Divergences > 0 {
		os.Exit(1)
	}
}

// writeWorkloadModules is the retained wasmgen mode: dump the workload
// suite (not a "benchmark suite" in name only — these are the
// evaluation's workload modules) for external inspection.
func writeWorkloadModules(out string, emitM0 bool) {
	items := workloads.All()
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	total := 0
	for _, it := range items {
		dir := filepath.Join(out, it.Suite)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, it.Name+".wasm"), it.Bytes, 0o644); err != nil {
			fatal(err)
		}
		total++
		if emitM0 {
			if err := os.WriteFile(filepath.Join(dir, it.Name+".m0.wasm"), it.BytesM0, 0o644); err != nil {
				fatal(err)
			}
			total++
		}
	}
	if err := os.WriteFile(filepath.Join(out, "mnop.wasm"), workloads.Mnop(), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d workload modules to %s\n", total+1, out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wizgo-fuzz:", err)
	os.Exit(1)
}
