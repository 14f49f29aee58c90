package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/monitors"
	"wizgo/internal/spc"
	"wizgo/internal/workloads"
)

// Table is a rendered experiment result: one row per configuration (or
// scatter point), one column group per suite.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   string
}

// Row is one table line.
type Row struct {
	Label string
	Cells []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("config")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
		for _, r := range t.Rows {
			if i < len(r.Cells) && len(r.Cells[i]) > widths[i+1] {
				widths[i+1] = len(r.Cells[i])
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0]+2, "config")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", widths[i+1]+2, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0]+2, r.Label)
		for i, c := range r.Cells {
			fmt.Fprintf(&b, "%*s", widths[i+1]+2, c)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "%s\n", t.Notes)
	}
	return b.String()
}

func suites() []string {
	return []string{workloads.SuitePolyBench, workloads.SuiteLibsodium, workloads.SuiteOstrich}
}

// statCell renders a suite's bar. A suite the selection left out has no
// values, and shows as "-": a zero would read as a measurement.
func statCell(st Stat) string {
	if st.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f [%.2f,%.2f]", st.Mean, st.Min, st.Max)
}

// mainTimes measures the median main time of every item under cfg.
func mainTimes(cfg engine.Config, items []workloads.Item, runs int) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration, len(items))
	for _, it := range items {
		samples, err := Measure(cfg, it.Bytes, runs)
		if err != nil {
			return nil, fmt.Errorf("%s on %s/%s: %w", cfg.Name, it.Suite, it.Name, err)
		}
		out[it.Suite+"/"+it.Name] = MainMedian(samples)
	}
	return out, nil
}

// Figure4 reproduces the execution-time speedup of Wizard-SPC variants
// over Wizard-INT (main time only).
func Figure4(items []workloads.Item, runs int) (*Table, error) {
	interp, err := mainTimes(engines.WizardINT(), items, runs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 4: execution time speedup of Wizard-SPC over Wizard-INT (higher is better)",
		Columns: suites(),
		Notes:   "cells: suite mean speedup [min,max] across line items",
	}
	for _, cfg := range engines.Figure4Variants() {
		times, err := mainTimes(cfg, items, runs)
		if err != nil {
			return nil, err
		}
		row := Row{Label: cfg.Name}
		for _, suite := range suites() {
			var speedups []float64
			for key, it := range interp {
				if strings.HasPrefix(key, suite+"/") {
					speedups = append(speedups, float64(it)/float64(times[key]))
				}
			}
			row.Cells = append(row.Cells, statCell(Aggregate(speedups)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure5 reproduces the relative execution time of tagging
// configurations vs the notags baseline (lower is better).
func Figure5(items []workloads.Item, runs int) (*Table, error) {
	variants := engines.Figure5Variants()
	base, err := mainTimes(variants[0], items, runs) // notags
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 5: execution time of tagging configurations relative to notags (lower is better)",
		Columns: suites(),
		Notes:   "cells: suite mean relative time [min,max]; 1.00 = notags",
	}
	for _, cfg := range variants[1:] {
		times, err := mainTimes(cfg, items, runs)
		if err != nil {
			return nil, err
		}
		row := Row{Label: cfg.Name}
		for _, suite := range suites() {
			var rel []float64
			for key, b := range base {
				if strings.HasPrefix(key, suite+"/") {
					rel = append(rel, float64(times[key])/float64(b))
				}
			}
			row.Cells = append(row.Cells, statCell(Aggregate(rel)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// probedMainTimes measures main time with the branch monitor attached.
func probedMainTimes(cfg engine.Config, items []workloads.Item, runs int) (map[string]time.Duration, error) {
	cfg.CompileWorkers = 1 // match RunOnce's single-threaded methodology
	out := make(map[string]time.Duration, len(items))
	for _, it := range items {
		var best []time.Duration
		for r := 0; r < runs; r++ {
			e := engine.New(cfg, nil)
			inst, err := e.Instantiate(it.Bytes)
			if err != nil {
				return nil, err
			}
			if _, err := monitors.AttachBranchMonitor(inst); err != nil {
				return nil, err
			}
			start, _ := inst.RT.FuncByName("_start")
			t0 := time.Now()
			if _, err := inst.CallFunc(start); err != nil {
				return nil, err
			}
			best = append(best, time.Since(t0))
		}
		out[it.Suite+"/"+it.Name] = median(best)
	}
	return out, nil
}

// Figure6 reproduces branch-monitor probe overhead: the increase in main
// execution time relative to the *uninstrumented interpreter* run, for
// int, jit, and optjit configurations.
func Figure6(items []workloads.Item, runs int) (*Table, error) {
	interpBase, err := mainTimes(engines.WizardINT(), items, runs)
	if err != nil {
		return nil, err
	}
	cfgs := []struct {
		name string
		cfg  engine.Config
	}{
		{"int", engines.WizardINT()},
		{"jit", engines.SPCVariant("jit-probes", func(c *spc.Config) { c.OptProbes = false })},
		{"optjit", engines.WizardSPC()},
	}
	t := &Table{
		Title:   "Figure 6: branch-monitor overhead relative to interpreter main time (lower is better)",
		Columns: suites(),
		Notes:   "cells: suite mean of (probed − unprobed)/interp-main [min,max]",
	}
	for _, c := range cfgs {
		unprobed, err := mainTimes(c.cfg, items, runs)
		if err != nil {
			return nil, err
		}
		probed, err := probedMainTimes(c.cfg, items, runs)
		if err != nil {
			return nil, err
		}
		row := Row{Label: c.name}
		for _, suite := range suites() {
			var overheads []float64
			for key, ib := range interpBase {
				if strings.HasPrefix(key, suite+"/") {
					d := float64(probed[key]-unprobed[key]) / float64(ib)
					if d < 0 {
						d = 0
					}
					overheads = append(overheads, d)
				}
			}
			row.Cells = append(row.Cells, statCell(Aggregate(overheads)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure7 reproduces relative execution time (total, including startup
// and compile) of the baseline compilers over Wizard-SPC.
func Figure7(items []workloads.Item, runs int) (*Table, error) {
	shootout := engines.BaselineShootout()
	base := make(map[string]time.Duration)
	for _, it := range items {
		samples, err := Measure(shootout[0], it.Bytes, runs)
		if err != nil {
			return nil, err
		}
		base[it.Suite+"/"+it.Name] = TotalMedian(samples)
	}
	t := &Table{
		Title:   "Figure 7: execution time relative to wizeng-spc (total time; lower is better)",
		Columns: suites(),
		Notes:   "cells: suite mean relative total time [min,max]",
	}
	for _, cfg := range shootout[1:] {
		row := Row{Label: cfg.Name}
		rel := make(map[string]float64)
		for _, it := range items {
			samples, err := Measure(cfg, it.Bytes, runs)
			if err != nil {
				return nil, err
			}
			key := it.Suite + "/" + it.Name
			rel[key] = float64(TotalMedian(samples)) / float64(base[key])
		}
		for _, suite := range suites() {
			var vals []float64
			for key, v := range rel {
				if strings.HasPrefix(key, suite+"/") {
					vals = append(vals, v)
				}
			}
			row.Cells = append(row.Cells, statCell(Aggregate(vals)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure8 reproduces compile time per input byte relative to wizeng-spc.
func Figure8(items []workloads.Item, runs int) (*Table, error) {
	shootout := engines.BaselineShootout()
	perByte := func(cfg engine.Config) (map[string]float64, error) {
		out := make(map[string]float64)
		for _, it := range items {
			samples, err := Measure(cfg, it.Bytes, runs)
			if err != nil {
				return nil, err
			}
			setup := SetupMedian(samples)
			out[it.Suite+"/"+it.Name] = float64(setup) / float64(samples[0].ModuleBytes)
		}
		return out, nil
	}
	base, err := perByte(shootout[0])
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 8: compile time per byte relative to wizeng-spc (lower is better)",
		Columns: suites(),
		Notes:   "cells: suite mean relative ns/byte [min,max]; includes decode+validate+compile",
	}
	for _, cfg := range shootout[1:] {
		times, err := perByte(cfg)
		if err != nil {
			return nil, err
		}
		row := Row{Label: cfg.Name}
		for _, suite := range suites() {
			var vals []float64
			for key, b := range base {
				if strings.HasPrefix(key, suite+"/") {
					vals = append(vals, times[key]/b)
				}
			}
			row.Cells = append(row.Cells, statCell(Aggregate(vals)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// SQPoint is one scatter point of Figures 9 and 10.
type SQPoint struct {
	Engine  string  `json:"engine"`
	Class   string  `json:"class"`
	Item    string  `json:"item"`
	SetupMB float64 `json:"setup_mb_s"` // setup speed, MB/s
	Speedup float64 `json:"speedup"`    // speedup over wizeng-int
}

// Figure9 produces the baseline-compiler SQ-space scatter: per line item,
// compile speed (MB/s) vs speedup of main time over wizeng-int.
func Figure9(items []workloads.Item, runs int) ([]SQPoint, error) {
	interp, err := mainTimes(engines.WizardINT(), items, runs)
	if err != nil {
		return nil, err
	}
	var points []SQPoint
	for _, cfg := range engines.BaselineShootout() {
		for _, it := range items {
			samples, err := Measure(cfg, it.Bytes, runs)
			if err != nil {
				return nil, err
			}
			key := it.Suite + "/" + it.Name
			setup := SetupMedian(samples)
			mb := float64(samples[0].ModuleBytes) / 1e6
			points = append(points, SQPoint{
				Engine:  cfg.Name,
				Class:   engines.TierClass(cfg.Name),
				Item:    key,
				SetupMB: mb / setup.Seconds(),
				Speedup: float64(interp[key]) / float64(MainMedian(samples)),
			})
		}
	}
	return points, nil
}

// Figure10 produces the full 18-tier SQ-space using the adjusted-time
// methodology: setup speed from T(m0)−T(Mnop), adjusted speedup over
// wizeng-int from T(m)−T(m0).
func Figure10(items []workloads.Item, runs int) ([]SQPoint, error) {
	tiers := engines.SQSpaceTiers()
	// Baseline: wizeng-int adjusted times per item.
	intCfg := tiers[0]
	intStartup, err := StartupTime(intCfg, runs*4)
	if err != nil {
		return nil, err
	}
	intAdj := make(map[string]time.Duration)
	for _, it := range items {
		at, err := MeasureAdjusted(intCfg, it, runs, intStartup)
		if err != nil {
			return nil, err
		}
		intAdj[it.Suite+"/"+it.Name] = at.Adjusted
	}
	var points []SQPoint
	for _, cfg := range tiers {
		startup, err := StartupTime(cfg, runs*4)
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			at, err := MeasureAdjusted(cfg, it, runs, startup)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", cfg.Name, it.Name, err)
			}
			key := it.Suite + "/" + it.Name
			setupSec := at.SetupUB.Seconds()
			if setupSec <= 0 {
				setupSec = 1e-9
			}
			points = append(points, SQPoint{
				Engine:  cfg.Name,
				Class:   engines.TierClass(cfg.Name),
				Item:    key,
				SetupMB: (float64(len(it.Bytes)) / 1e6) / setupSec,
				Speedup: float64(intAdj[key]) / float64(at.Adjusted),
			})
		}
	}
	return points, nil
}

// RenderSQ renders scatter points as a per-engine summary table plus a
// CSV block suitable for external plotting.
func RenderSQ(title string, points []SQPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	type agg struct {
		class    string
		setups   []float64
		speedups []float64
	}
	byEngine := map[string]*agg{}
	var order []string
	for _, p := range points {
		a, ok := byEngine[p.Engine]
		if !ok {
			a = &agg{class: p.Class}
			byEngine[p.Engine] = a
			order = append(order, p.Engine)
		}
		a.setups = append(a.setups, p.SetupMB)
		a.speedups = append(a.speedups, p.Speedup)
	}
	fmt.Fprintf(&b, "%-14s %-12s %16s %18s\n", "engine", "class", "setup MB/s(gm)", "speedup(gm)")
	for _, name := range order {
		a := byEngine[name]
		fmt.Fprintf(&b, "%-14s %-12s %16.2f %18.2f\n",
			name, a.class, Geomean(a.setups), Geomean(a.speedups))
	}
	b.WriteString("\ncsv: engine,class,item,setup_mb_s,speedup\n")
	sorted := make([]SQPoint, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Engine != sorted[j].Engine {
			return sorted[i].Engine < sorted[j].Engine
		}
		return sorted[i].Item < sorted[j].Item
	})
	for _, p := range sorted {
		fmt.Fprintf(&b, "%s,%s,%s,%.4f,%.4f\n", p.Engine, p.Class, p.Item, p.SetupMB, p.Speedup)
	}
	return b.String()
}

// Figure3 renders the feature-matrix table.
func Figure3() *Table {
	t := &Table{
		Title:   "Figure 3: baseline compiler feature matrix",
		Columns: []string{"year", "features", "description"},
	}
	for _, r := range engines.Figure3() {
		t.Rows = append(t.Rows, Row{
			Label: r.Name,
			Cells: []string{fmt.Sprintf("%d", r.Year), r.Features, r.Desc},
		})
	}
	t.Notes = "MR=multi-register, R=register alloc, K=constants, KF=const-folding,\nISEL=instr selection, TAG=value tags, MAP=stackmaps, MV=multi-value"
	return t
}
