package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// noiseRow is one workload × metric over the runs of a file: the
// run-to-run figures every "within noise" statement should cite.
type noiseRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"` // 0: per-layer, not gated
	// DriftOnly copies the metric's flag: its spread is shown, not judged.
	DriftOnly bool    `json:"drift_only,omitempty"`
	Runs      int     `json:"runs"`
	Min       float64 `json:"min"`
	Median    float64 `json:"median"`
	Max       float64 `json:"max"`
	// Spread is the distance between the quartiles of the runs (as
	// Python's statistics.quantiles gives them) as a share of the median.
	Spread float64 `json:"spread"`
}

// seriesKey names one workload × metric.
type seriesKey struct{ workload, metric string }

// series collects each workload × metric's value over a file's runs, in
// first-seen order, with the failed-op share per workload.
type series struct {
	keys   []seriesKey
	values map[seriesKey][]float64
	defs   map[seriesKey]metric
	failed map[string][2]int64 // workload → failed, attempted
}

func collect(f *benchFile) *series {
	s := &series{values: map[seriesKey][]float64{}, defs: map[seriesKey]metric{}, failed: map[string][2]int64{}}
	for _, run := range f.Runs {
		for _, w := range run.Workloads {
			fa := s.failed[w.Name]
			s.failed[w.Name] = [2]int64{fa[0] + w.OpsFailed, fa[1] + w.OpsAttempted}
			names := make([]string, 0, len(w.Metrics))
			for name := range w.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				key := seriesKey{w.Name, name}
				if _, seen := s.values[key]; !seen {
					s.keys = append(s.keys, key)
					s.defs[key] = w.Metrics[name]
				}
				s.values[key] = append(s.values[key], w.Metrics[name].Value)
			}
		}
	}
	return s
}

func noiseRows(f *benchFile) []noiseRow {
	s := collect(f)
	var rows []noiseRow
	for _, key := range s.keys {
		xs, d := sorted(s.values[key]), s.defs[key]
		rows = append(rows, noiseRow{Workload: key.workload, Metric: key.metric, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
			DriftOnly: d.DriftOnly, Runs: len(xs), Min: xs[0], Median: percentile(xs, 0.5), Max: xs[len(xs)-1], Spread: spread(xs)})
	}
	return rows
}

// printNoise writes the table and reports whether every end-to-end
// spread stayed within its bound. A drift-only metric (setup_s) is
// printed but not judged, as in the driver: only its drift between two
// sets of runs is held to the bound (-compare does that).
func printNoise(out io.Writer, rows []noiseRow) bool {
	ok := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tmin\tmedian\tmax\tspread\tbound\tspread/bound")
	for _, r := range rows {
		if r.Bound == 0 {
			continue
		}
		verdict := ""
		switch {
		case r.DriftOnly:
			verdict = "  (not judged)"
		case r.Spread > r.Bound:
			verdict, ok = "  EXCEEDS", false
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.5g\t%.5g\t%.5g\t%.4f\t%.2f\t%.2f%s\n",
			r.Workload, r.Metric, r.Unit, r.Runs, r.Min, r.Median, r.Max, r.Spread, r.Bound, r.Spread/r.Bound, verdict)
	}
	tw.Flush()
	return ok
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if f.Schema != schemaName {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, f.Schema, schemaName)
	}
	return &f, nil
}

// verdict applies the choosing-metrics rule to one workload × metric.
// worsening is the new median's distance from the old on the worse
// side, as a share of the old median.
func verdict(old, cur []float64, better string, bound float64) (v string, ratio float64) {
	om, cm := median(old), median(cur)
	if om == 0 {
		return "unresolved", 0
	}
	ratio = cm / om
	worsening := ratio - 1
	if better == "higher" {
		worsening = 1 - ratio
	}
	betterThan := func(a, b float64) bool {
		if better == "higher" {
			return a > b
		}
		return a < b
	}
	allBetter, allWorse := true, true
	for _, c := range cur {
		for _, o := range old {
			allBetter = allBetter && betterThan(c, o)
			allWorse = allWorse && betterThan(o, c)
		}
	}
	wide := max(spread(old), spread(cur)) > bound
	switch {
	case allBetter && len(old) > 1 && len(cur) > 1:
		return "better", ratio
	case worsening > bound && (!wide || allWorse):
		return "worse", ratio
	case wide:
		return "unresolved", ratio
	}
	return "within", ratio
}

// compareFiles prints one row per workload × end-to-end metric and
// reports whether nothing got worse: no metric beyond its bound and no
// workload with a higher failed-op share.
func compareFiles(out io.Writer, oldPath, newPath string) (bool, error) {
	oldF, err := readBenchFile(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readBenchFile(newPath)
	if err != nil {
		return false, err
	}
	o, n := collect(oldF), collect(newF)
	ok := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\tnew/old\tspread old\tspread new\tbound\tverdict")
	for _, key := range o.keys {
		d := o.defs[key]
		if d.Bound == 0 {
			continue
		}
		cur, both := n.values[key]
		if !both {
			// A change that stops reporting a gated metric has not held it.
			ok = false
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t-\t-\t%.4f\t-\t%.2f\tworse (missing from %s)\n", key.workload, key.metric, d.Unit,
				median(o.values[key]), spread(o.values[key]), d.Bound, newPath)
			continue
		}
		v, ratio := verdict(o.values[key], cur, d.Better, d.Bound)
		if v == "worse" {
			ok = false
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n", key.workload, key.metric, d.Unit,
			median(o.values[key]), median(cur), ratio, spread(o.values[key]), spread(cur), d.Bound, v)
	}
	tw.Flush()
	for w, fa := range o.failed {
		nf := n.failed[w]
		if share(uint64(nf[0]), uint64(nf[1])) > share(uint64(fa[0]), uint64(fa[1])) {
			fmt.Fprintf(out, "%s: failed-op share rose from %d/%d to %d/%d\n", w, fa[0], fa[1], nf[0], nf[1])
			ok = false
		}
	}
	return ok, nil
}
