package main

import (
	"encoding/json"
	"os"

	"wizgo/internal/harness"
)

// Report is the machine-readable form of a wizgo-bench run, written by
// the -json flag: the selection the run was made with and every figure
// it produced.
type Report struct {
	Runs    int            `json:"runs"`
	Suite   string         `json:"suite,omitempty"`
	Items   int            `json:"items,omitempty"`
	Figures []FigureResult `json:"figures"`
}

// FigureResult is one figure's output: tables carry rows, scatter
// figures carry points.
type FigureResult struct {
	Figure  int               `json:"figure"`
	Title   string            `json:"title,omitempty"`
	Columns []string          `json:"columns,omitempty"`
	Rows    []RowResult       `json:"rows,omitempty"`
	Points  []harness.SQPoint `json:"points,omitempty"`
}

// RowResult is one table line.
type RowResult struct {
	Label string   `json:"label"`
	Cells []string `json:"cells"`
}

func (r *Report) addTable(fig int, t *harness.Table) {
	fr := FigureResult{Figure: fig, Title: t.Title, Columns: t.Columns}
	for _, row := range t.Rows {
		fr.Rows = append(fr.Rows, RowResult{Label: row.Label, Cells: row.Cells})
	}
	r.Figures = append(r.Figures, fr)
}

func (r *Report) addPoints(fig int, title string, points []harness.SQPoint) {
	r.Figures = append(r.Figures, FigureResult{Figure: fig, Title: title, Points: points})
}

func (r *Report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
