package harness_test

import (
	"testing"
	"time"

	"wizgo/internal/engines"
	"wizgo/internal/harness"
	"wizgo/internal/workloads"
)

func TestAggregate(t *testing.T) {
	st := harness.Aggregate([]float64{2, 4, 6})
	if st.Mean != 4 || st.Min != 2 || st.Max != 6 || st.N != 3 {
		t.Errorf("stat = %+v", st)
	}
	empty := harness.Aggregate(nil)
	if empty.N != 0 {
		t.Errorf("empty stat = %+v", empty)
	}
}

func TestGeomean(t *testing.T) {
	g := harness.Geomean([]float64{1, 4})
	if g < 1.99 || g > 2.01 {
		t.Errorf("geomean(1,4) = %f", g)
	}
	if harness.Geomean(nil) != 0 {
		t.Error("geomean of nothing should be 0")
	}
}

func TestRunOnceProducesChecksumAndTimings(t *testing.T) {
	item := workloads.Ostrich()[3] // crc, fast
	s, err := harness.RunOnce(engines.WizardSPC(), item.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if s.Checksum == 0 {
		t.Error("checksum missing")
	}
	if s.Main <= 0 || s.Total < s.Main || s.Setup <= 0 {
		t.Errorf("timings inconsistent: %+v", s)
	}
	if s.ModuleBytes != len(item.Bytes) || s.CodeBytes == 0 {
		t.Errorf("sizes: %+v", s)
	}
}

func TestMedians(t *testing.T) {
	samples := []harness.Sample{
		{Main: 3, Total: 30, Setup: 300},
		{Main: 1, Total: 10, Setup: 100},
		{Main: 2, Total: 20, Setup: 200},
	}
	if harness.MainMedian(samples) != 2 {
		t.Error("main median wrong")
	}
	if harness.TotalMedian(samples) != 20 {
		t.Error("total median wrong")
	}
	if harness.SetupMedian(samples) != 200 {
		t.Error("setup median wrong")
	}
}

func TestAdjustedTimesSane(t *testing.T) {
	item := workloads.Ostrich()[3]
	cfg := engines.WizardSPC()
	startup, err := harness.StartupTime(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	at, err := harness.MeasureAdjusted(cfg, item, 3, startup)
	if err != nil {
		t.Fatal(err)
	}
	if at.Adjusted < 10*time.Microsecond {
		t.Errorf("adjusted main time implausibly small: %v", at.Adjusted)
	}
	if at.SetupUB <= 0 {
		t.Errorf("setup upper bound missing: %v", at.SetupUB)
	}
}

func TestFigure3Table(t *testing.T) {
	tbl := harness.Figure3()
	out := tbl.Render()
	for _, want := range []string{"wizeng-spc", "MR K KF ISEL TAG MV", "sm-base"} {
		if !containsStr(out, want) {
			t.Errorf("figure 3 output missing %q", want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFigure4Small runs the full Figure 4 pipeline on a tiny selection,
// checking the structural invariants of the result.
func TestFigure4Small(t *testing.T) {
	items := []workloads.Item{
		workloads.PolyBench()[0],
		workloads.Libsodium()[0],
		workloads.Ostrich()[3],
	}
	tbl, err := harness.Figure4(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("figure 4 has %d rows, want 5 ablations", len(tbl.Rows))
	}
	if tbl.Rows[0].Label != "allopt" {
		t.Errorf("first row %q", tbl.Rows[0].Label)
	}
	if len(tbl.Columns) != 3 {
		t.Errorf("columns %v", tbl.Columns)
	}

	// A suite with no selected item has nothing to aggregate, and says
	// so instead of printing a 0.00 that reads as a measurement.
	tbl, err = harness.Figure4(items[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if len(row.Cells) != 3 || row.Cells[0] == "-" || row.Cells[1] != "-" || row.Cells[2] != "-" {
			t.Errorf("%s with only polybench selected: cells %q, want a measurement then two \"-\"", row.Label, row.Cells)
		}
	}
	if out := tbl.Render(); containsStr(out, "0.00 [0.00,0.00]") {
		t.Errorf("empty suites rendered as measurements:\n%s", out)
	}
}
