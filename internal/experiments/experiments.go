// Package experiments regenerates every figure and worked example of the
// paper as a machine-checked experiment (see DESIGN.md for the index).
// Each experiment returns a Report whose Rows are printable and whose OK
// flag is asserted by the integration tests and summarized by `lph sweep`.
package experiments

import "fmt"

// Row is one printable line of an experiment report.
type Row struct {
	Name     string
	Expected string
	Measured string
	OK       bool
}

// Report is the outcome of one experiment.
type Report struct {
	ID    string // e.g. "Figure 1"
	Title string
	Rows  []Row
}

// OK reports whether all rows match their expectation.
func (r *Report) OK() bool {
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return true
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	out := fmt.Sprintf("== %s — %s ==\n", r.ID, r.Title)
	width := 0
	for _, row := range r.Rows {
		if len(row.Name) > width {
			width = len(row.Name)
		}
	}
	for _, row := range r.Rows {
		status := "ok"
		if !row.OK {
			status = "MISMATCH"
		}
		out += fmt.Sprintf("  %-*s  expected %-22s measured %-22s [%s]\n",
			width, row.Name, row.Expected, row.Measured, status)
	}
	return out
}

func row(name string, expected, measured any) Row {
	e := fmt.Sprintf("%v", expected)
	m := fmt.Sprintf("%v", measured)
	return Row{Name: name, Expected: e, Measured: m, OK: e == m}
}
