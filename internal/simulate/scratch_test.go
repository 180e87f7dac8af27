package simulate

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

// neighborEcho is a two-round machine with real message traffic: round 1
// sends the node's id to every neighbor, round 2 checks the received
// ids arrive in ascending identifier order (the engine's port contract)
// and accepts iff they do. It copies nothing from recv across rounds,
// honoring the pooled-buffer contract.
func neighborEcho() *Machine {
	type st struct {
		id string
		ok bool
	}
	return &Machine{
		Name: "test:neighbor-echo",
		Init: func(in Input) any { return &st{id: in.ID, ok: true} },
		Round: func(state any, round int, recv []string) ([]string, bool) {
			s := state.(*st)
			if round == 1 {
				send := make([]string, len(recv))
				for j := range send {
					send[j] = s.id
				}
				return send, false
			}
			for j := 1; j < len(recv); j++ {
				if recv[j-1] >= recv[j] {
					s.ok = false
				}
			}
			return nil, true
		},
		Output: func(state any) string {
			if state.(*st).ok {
				return "1"
			}
			return "0"
		},
	}
}

// certParityAccept accepts at a node iff its single certificate equals
// its label — the workload shape of the game leaves RunAccepted serves.
func certParityAccept() *Machine {
	type st struct{ ok bool }
	return &Machine{
		Name: "test:cert-equals-label",
		Init: func(in Input) any {
			return &st{ok: len(in.Certs) == 1 && in.Certs[0] == in.Label}
		},
		Round: func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(state any) string {
			if state.(*st).ok {
				return "1"
			}
			return "0"
		},
	}
}

// TestRunAcceptedMatchesRun drives the pooled fast path and the
// allocating Run path over every certificate assignment of a labeled
// cycle and demands identical verdicts — including reusing ONE Scratch
// across all executions, which is exactly how the game engine holds it.
func TestRunAcceptedMatchesRun(t *testing.T) {
	t.Parallel()
	n := 5
	g := graph.Cycle(n).MustWithLabels([]string{"1", "0", "1", "1", "0"})
	prep, err := Prepare(g, graph.SmallLocallyUnique(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := certParityAccept()
	sc := prep.NewScratch()
	for mask := 0; mask < 1<<n; mask++ {
		certs := make([][]string, n)
		for u := 0; u < n; u++ {
			bit := "0"
			if mask&(1<<u) != 0 {
				bit = "1"
			}
			certs[u] = []string{bit}
		}
		res, err := prep.Run(m, certs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := prep.RunAccepted(m, certs, 0, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != res.Accepted() {
			t.Fatalf("mask %b: RunAccepted=%v Run.Accepted=%v", mask, got, res.Accepted())
		}
	}
}

// TestRunAcceptedMessageOrder checks the pooled path delivers real
// multi-round message traffic identically to Run: ids arrive sorted,
// on a graph where neighbor order matters.
func TestRunAcceptedMessageOrder(t *testing.T) {
	t.Parallel()
	g := graph.Complete(4)
	prep, err := Prepare(g, graph.SmallLocallyUnique(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := neighborEcho()
	sc := prep.NewScratch()
	for i := 0; i < 3; i++ { // reuse across runs must not leak state
		ok, err := prep.RunAccepted(m, nil, 0, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("run %d: messages not in identifier order on the pooled path", i)
		}
	}
	res, err := prep.Run(m, nil, Options{})
	if err != nil || !res.Accepted() {
		t.Fatalf("reference path disagrees: %v %v", res, err)
	}
}

// TestRunAcceptedTimeout pins the non-termination error of the pooled
// path to the same sentinel as Run's.
func TestRunAcceptedTimeout(t *testing.T) {
	t.Parallel()
	forever := &Machine{
		Name:   "test:never-halts",
		Init:   func(Input) any { return nil },
		Round:  func(any, int, []string) ([]string, bool) { return nil, false },
		Output: func(any) string { return "1" },
	}
	g := graph.Path(2)
	prep, err := Prepare(g, graph.SmallLocallyUnique(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = prep.RunAccepted(forever, nil, 3, prep.NewScratch())
	if !errors.Is(err, ErrDidNotTerminate) {
		t.Fatalf("err = %v, want ErrDidNotTerminate", err)
	}
	if !strings.Contains(err.Error(), "3 rounds") || !strings.Contains(err.Error(), forever.Name) {
		t.Fatalf("error %q must name the bound and the machine", err)
	}
}
