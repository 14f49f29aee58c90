// Command wizgo-bench regenerates the paper's tables and figures, and
// nothing else: serving-path performance (cold, disk and warm requests,
// pools, throughput) is measured by the repository benchmark,
// `go run ./bench`, and cross-configuration agreement on the workloads
// measured here is checked by `wizgo-fuzz -suite`.
//
// Usage:
//
//	wizgo-bench [-fig 4] [-runs 5] [-suite polybench] [-items 10] [-json out.json]
//
// Figures: 3 (feature matrix), 4 (SPC optimization ablations),
// 5 (value-tag configurations), 6 (probe overhead), 7 (baseline
// execution shootout), 8 (baseline compile-speed shootout), 9 (baseline
// SQ-space scatter), 10 (full 18-tier SQ-space). -json writes every
// figure the run produced as machine-readable JSON.
package main

import (
	"flag"
	"fmt"
	"os"

	"wizgo/internal/harness"
	"wizgo/internal/workloads"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (3-10); 0 = all")
	runs := flag.Int("runs", 5, "runs per line item (paper: 25)")
	suite := flag.String("suite", "", "restrict to one suite (polybench, libsodium, ostrich)")
	items := flag.Int("items", 0, "restrict to first N items per suite (0 = all)")
	jsonPath := flag.String("json", "", "write figure results as JSON to this path")
	flag.Parse()

	all, err := workloads.Select(*suite, *items)
	check(err)

	report := &Report{Runs: *runs, Suite: *suite, Items: *items}

	run := func(n int) {
		switch n {
		case 3:
			t := harness.Figure3()
			fmt.Print(t.Render())
			report.addTable(3, t)
		case 4:
			t, err := harness.Figure4(all, *runs)
			emit(report, 4, t, err)
		case 5:
			t, err := harness.Figure5(all, *runs)
			emit(report, 5, t, err)
		case 6:
			t, err := harness.Figure6(all, *runs)
			emit(report, 6, t, err)
		case 7:
			t, err := harness.Figure7(all, *runs)
			emit(report, 7, t, err)
		case 8:
			t, err := harness.Figure8(all, *runs)
			emit(report, 8, t, err)
		case 9:
			points, err := harness.Figure9(all, *runs)
			check(err)
			fmt.Print(harness.RenderSQ("Figure 9: SQ-space of baseline compilers", points))
			report.addPoints(9, "SQ-space of baseline compilers", points)
		case 10:
			points, err := harness.Figure10(all, *runs)
			check(err)
			fmt.Print(harness.RenderSQ("Figure 10: SQ-space of 18 execution tiers", points))
			report.addPoints(10, "SQ-space of 18 execution tiers", points)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %d\n", n)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *fig != 0 {
		run(*fig)
	} else {
		for _, n := range []int{3, 4, 5, 6, 7, 8, 9, 10} {
			run(n)
		}
	}

	if *jsonPath != "" {
		if err := report.write(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "wizgo-bench: writing json:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}

func emit(report *Report, fig int, t *harness.Table, err error) {
	check(err)
	fmt.Print(t.Render())
	report.addTable(fig, t)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wizgo-bench:", err)
		os.Exit(1)
	}
}
