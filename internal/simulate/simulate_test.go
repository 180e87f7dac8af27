package simulate

import (
	"errors"
	"testing"

	"repro/internal/graph"
)

// allSelected is the functional analogue of dtm.AllSelectedMachine.
func allSelected() *Machine {
	type st struct{ ok bool }
	return &Machine{
		Name: "all-selected",
		Init: func(in Input) any { return &st{ok: in.Label == "1"} },
		Round: func(s any, round int, recv []string) ([]string, bool) {
			return nil, true
		},
		Output: func(s any) string {
			if s.(*st).ok {
				return "1"
			}
			return "0"
		},
	}
}

// broadcastLabelEq accepts iff all neighbors share the node's label
// (2 rounds: broadcast, then compare).
func broadcastLabelEq() *Machine {
	type st struct {
		label string
		deg   int
		ok    bool
	}
	return &Machine{
		Name: "all-equal",
		Init: func(in Input) any { return &st{label: in.Label, deg: in.Degree, ok: true} },
		Round: func(s any, round int, recv []string) ([]string, bool) {
			n := s.(*st)
			if round == 1 {
				out := make([]string, n.deg)
				for i := range out {
					out[i] = n.label
				}
				return out, false
			}
			for _, msg := range recv {
				if msg != n.label {
					n.ok = false
				}
			}
			return nil, true
		},
		Output: func(s any) string {
			if s.(*st).ok {
				return "1"
			}
			return "0"
		},
	}
}

func TestAllSelectedMachine(t *testing.T) {
	t.Parallel()
	g := graph.Path(3).MustWithLabels([]string{"1", "1", "1"})
	res, err := Run(allSelected(), g, graph.GloballyUnique(g), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() || res.Rounds != 1 {
		t.Fatalf("accepted=%v rounds=%d", res.Accepted(), res.Rounds)
	}
	bad := g.MustWithLabels([]string{"1", "0", "1"})
	res, err = Run(allSelected(), bad, graph.GloballyUnique(bad), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("should reject")
	}
	if r := res.Rejecters(); len(r) != 1 || r[0] != 1 {
		t.Fatalf("rejecters = %v", r)
	}
}

func TestBroadcastEquality(t *testing.T) {
	t.Parallel()
	eq := graph.Cycle(5).MustWithLabels([]string{"10", "10", "10", "10", "10"})
	res, err := Run(broadcastLabelEq(), eq, graph.SmallLocallyUnique(eq, 1), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() || res.Rounds != 2 {
		t.Fatalf("accepted=%v rounds=%d", res.Accepted(), res.Rounds)
	}
	ne := graph.Cycle(5).MustWithLabels([]string{"10", "10", "11", "10", "10"})
	res, err = Run(broadcastLabelEq(), ne, graph.SmallLocallyUnique(ne, 1), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("should reject unequal labels")
	}
}

// TestMessageOrdering: messages must arrive sorted by sender identifier.
func TestMessageOrdering(t *testing.T) {
	t.Parallel()
	type st struct {
		deg int
		id  string
		got []string
		out string
	}
	probe := &Machine{
		Name: "probe",
		Init: func(in Input) any { return &st{deg: in.Degree, id: in.ID} },
		Round: func(s any, round int, recv []string) ([]string, bool) {
			n := s.(*st)
			if round == 1 {
				out := make([]string, n.deg)
				for i := range out {
					out[i] = n.id // everyone sends its identifier
				}
				return out, false
			}
			n.got = recv
			return nil, true
		},
		Output: func(s any) string { return "1" },
	}
	// Star with center 0; leaves get identifiers in inverted order.
	g := graph.Star(4)
	id := graph.IDAssignment{"00", "11", "10", "01"}
	res, err := Run(probe, g, id, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// We can't reach the states from here directly; re-run capturing them.
	var center *st
	probe2 := *probe
	probe2.Init = func(in Input) any {
		s := &st{deg: in.Degree, id: in.ID}
		if in.Node == 0 {
			center = s
		}
		return s
	}
	if _, err := Run(&probe2, g, id, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	want := []string{"01", "10", "11"} // ascending identifier order
	for i, w := range want {
		if center.got[i] != w {
			t.Fatalf("center received %v, want %v", center.got, want)
		}
	}
}

func TestHaltedNodesSendNothing(t *testing.T) {
	t.Parallel()
	// Node halts in round 1 after sending; in round 2 neighbors must see
	// its message, in round 3 empty strings.
	type st struct {
		deg    int
		label  string
		round2 []string
		round3 []string
	}
	var states []*st
	m := &Machine{
		Name: "early-halt",
		Init: func(in Input) any {
			s := &st{deg: in.Degree, label: in.Label}
			states = append(states, s)
			return s
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			switch round {
			case 1:
				out := make([]string, s.deg)
				for i := range out {
					out[i] = s.label
				}
				// The "0"-labeled node halts immediately.
				return out, s.label == "0"
			case 2:
				s.round2 = recv
				out := make([]string, s.deg)
				for i := range out {
					out[i] = s.label
				}
				return out, false
			default:
				s.round3 = recv
				return nil, true
			}
		},
		Output: func(any) string { return "1" },
	}
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	if _, err := Run(m, g, graph.GloballyUnique(g), nil, Options{}); err != nil {
		t.Fatal(err)
	}
	nodeB := states[1]
	if nodeB.round2[0] != "0" {
		t.Fatalf("round 2: got %q, want the halting node's last message", nodeB.round2[0])
	}
	if nodeB.round3[0] != "" {
		t.Fatalf("round 3: got %q, want empty from halted node", nodeB.round3[0])
	}
}

func TestNonTermination(t *testing.T) {
	t.Parallel()
	m := &Machine{
		Name:   "loop",
		Init:   func(Input) any { return nil },
		Round:  func(any, int, []string) ([]string, bool) { return nil, false },
		Output: func(any) string { return "" },
	}
	g := graph.Single("")
	_, err := Run(m, g, graph.IDAssignment{""}, nil, Options{MaxRounds: 7})
	if !errors.Is(err, ErrDidNotTerminate) {
		t.Fatalf("want ErrDidNotTerminate, got %v", err)
	}
}

func TestInputLocalSize(t *testing.T) {
	t.Parallel()
	in := Input{Label: "10", ID: "0", Certs: []string{"11", ""}}
	// "10#0#11#" + "" with separators: 2+1+1+1+2+1+0+1 = 9.
	if got := in.LocalSize(); got != 9 {
		t.Fatalf("LocalSize = %d, want 9", got)
	}
}

func TestBitAccounting(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"111", "111"})
	res, err := Run(broadcastLabelEq(), g, graph.GloballyUnique(g), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each node sends 3 bytes once and receives 3 bytes once.
	for u := 0; u < 2; u++ {
		if res.SentBits[u] != 3 || res.RecvBits[u] != 3 {
			t.Fatalf("node %d: sent=%d recv=%d", u, res.SentBits[u], res.RecvBits[u])
		}
	}
}

func TestDecide(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"1", "1"})
	ok, err := Decide(allSelected(), g, graph.GloballyUnique(g), Options{})
	if err != nil || !ok {
		t.Fatalf("Decide = %v, %v", ok, err)
	}
}
