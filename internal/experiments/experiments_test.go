package experiments

import (
	"strings"
	"testing"

	"repro/internal/search"
)

// TestAllExperiments asserts that every figure/example experiment in the
// repository's index reproduces the paper's claims.
func TestAllExperiments(t *testing.T) {
	t.Parallel()
	for _, s := range Index() {
		rep := s.Run(search.Default())
		t.Run(rep.ID, func(t *testing.T) {
			if !rep.OK() {
				t.Fatalf("experiment failed:\n%s", rep)
			}
		})
	}
}

func TestReportString(t *testing.T) {
	t.Parallel()
	r := &Report{ID: "X", Title: "demo"}
	r.Rows = append(r.Rows, row("a", 1, 1), row("b", true, false))
	s := r.String()
	if !strings.Contains(s, "MISMATCH") || !strings.Contains(s, "[ok]") {
		t.Fatalf("rendering wrong:\n%s", s)
	}
	if r.OK() {
		t.Fatal("OK must be false with a mismatching row")
	}
}

func TestProposition24RejectsEvenN(t *testing.T) {
	t.Parallel()
	if _, err := Proposition24(8, nil, search.Default()); err == nil {
		t.Fatal("even n accepted")
	}
}

func TestProposition26ParameterValidation(t *testing.T) {
	t.Parallel()
	if _, err := Proposition26(10, 4, 3); err == nil {
		t.Fatal("n not a multiple of the period accepted")
	}
}

// TestCounterVerifierSoundOnShortCycles: on cycles shorter than the
// modulus the counter verifier is actually sound — the pumping experiment
// needs the long cycle to defeat it, mirroring the asymptotic nature of
// Proposition 26.
func TestCounterVerifierIsNontrivial(t *testing.T) {
	t.Parallel()
	rep, err := Proposition26(24, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("pumping experiment failed:\n%s", rep)
	}
}
