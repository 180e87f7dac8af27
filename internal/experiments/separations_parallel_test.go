package experiments

import (
	"testing"

	"repro/internal/search"
)

// TestFigure2SeparationsParallelMatchesSequential asserts that the
// fanned-out separation experiments produce exactly the sequential
// report (same rows, same order, same verdicts) and still pass.
func TestFigure2SeparationsParallelMatchesSequential(t *testing.T) {
	seq := Figure2Separations(search.Sequential())
	par := Figure2Separations(search.Parallel(0))
	if !seq.OK() {
		t.Fatal("sequential Figure 2 report not OK:\n" + seq.String())
	}
	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: sequential %d, parallel %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		if seq.Rows[i] != par.Rows[i] {
			t.Errorf("row %d differs: sequential %+v, parallel %+v", i, seq.Rows[i], par.Rows[i])
		}
	}
}
