package simulate

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/graph"
)

// mixer is a multi-round machine whose traffic depends on everything a
// node has seen: each node folds its label, certificates and every
// message it receives into a running hash. It halts after a round
// drawn from its certificates (1..maxHalt, so neighbours halt at
// different rounds and keep sending "" to nodes still running), sends a
// constant before round late (so certificate changes surface only in
// late messages), and, when short is set, sometimes returns a nil or
// truncated send slice. A certificate "stall" delays halting past any
// small round bound. Its verdict is a bit of the final hash.
func mixer(name string, late, maxHalt int, short bool) *Machine {
	type st struct {
		h    uint64
		halt int
		out  []string
	}
	fold := func(s *st, parts ...string) {
		f := fnv.New64a()
		var b [8]byte
		for i := range b {
			b[i] = byte(s.h >> (8 * i))
		}
		f.Write(b[:])
		for _, p := range parts {
			f.Write([]byte(p))
			f.Write([]byte{0})
		}
		s.h = f.Sum64()
	}
	return &Machine{
		Name: name,
		Init: func(in Input) any {
			s := &st{out: make([]string, in.Degree)}
			fold(s, in.Label)
			fold(s, in.Certs...)
			s.halt = 1 + int(s.h%uint64(maxHalt))
			for _, c := range in.Certs {
				if c == "stall" {
					s.halt = 1000
				}
			}
			if in.Certs == nil {
				fold(s, "nil")
			}
			return s
		},
		Round: func(state any, round int, recv []string) ([]string, bool) {
			s := state.(*st)
			fold(s, recv...)
			for j := range s.out {
				if round < late {
					s.out[j] = "c"
				} else {
					s.out[j] = strconv.FormatUint((s.h>>(4*j))%5, 10)
				}
			}
			out := s.out
			if short {
				switch s.h % 4 {
				case 0:
					out = nil
				case 1:
					out = out[:len(out)/2]
				}
			}
			return out, round >= s.halt
		},
		Output: func(state any) string {
			if state.(*st).h%8 != 0 {
				return "1"
			}
			return "0"
		},
	}
}

// byteSource hands out the bytes of a fuzz input, then zeros.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *byteSource) done() bool { return s.i >= len(s.b) }

// certOptions is the certificate alphabet of the sequences.
var certOptions = []string{"", "0", "1", "01", "10", "stall"}

// checkIncrementalSequence decodes a connected graph and a sequence of
// runs from src — random jumps, single-node edits, repeats, nil
// certificates, list-length changes, machine switches, resets and small
// round bounds — and drives them all through RunAccepted on one Scratch,
// demanding at every step the verdict and error of Run followed by
// Accepted. A repeat after a run that left a trace must start no node.
func checkIncrementalSequence(t testing.TB, data []byte) {
	src := &byteSource{b: data}
	n := 1 + src.next()%8
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: src.next() % v, V: v})
	}
	for extra := src.next() % 4; extra > 0; extra-- {
		if u, v := src.next()%n, src.next()%n; u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	labels := make([]string, n)
	for u := range labels {
		labels[u] = strconv.Itoa(src.next() % 2)
	}
	g := graph.MustNew(n, edges, labels)
	id := graph.GloballyUnique(g)
	if src.next()%2 == 0 {
		id = graph.SmallLocallyUnique(g, 1)
	}
	p, err := Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	machines := []*Machine{
		mixer("test:mixer", 1, 4, false),
		mixer("test:mixer-late", 3, 5, true),
		mixer("test:mixer-short", 1, 2, true),
		certParityAccept(),
	}
	m := machines[src.next()%len(machines)]
	width := 1 + src.next()%2
	fresh := func() [][]string {
		certs := make([][]string, n)
		for u := range certs {
			certs[u] = make([]string, width)
			for j := range certs[u] {
				certs[u][j] = certOptions[src.next()%len(certOptions)]
			}
		}
		return certs
	}
	certs := fresh()
	sc := p.NewScratch()
	for step := 0; step < 400 && !src.done(); step++ {
		maxRounds := 0
		switch op := src.next() % 16; {
		case op < 2: // random jump
			certs = fresh()
		case op < 10: // one node's certificate
			if certs == nil {
				certs = fresh()
				break
			}
			u := src.next() % n
			row := append([]string(nil), certs[u]...)
			if len(row) > 0 {
				row[src.next()%len(row)] = certOptions[src.next()%len(certOptions)]
			}
			certs = append([][]string(nil), certs...)
			certs[u] = row
		case op < 11: // repeat
		case op < 12: // no certificates at all
			certs = nil
		case op < 13: // another list length
			width = src.next() % 3
			certs = fresh()
		case op < 14: // another machine on the same scratch
			m = machines[src.next()%len(machines)]
		case op < 15: // a dropped trace
			sc.Reset()
		default: // a round bound some runs exceed
			maxRounds = 1 + src.next()%4
		}
		repeat := sc.valid && sc.machine == m && maxRounds == 0 && sc.rounds-1 < sc.diam && sameLists(sc.certs, certs)
		runs := sc.NodeRuns()
		got, gotErr := p.RunAccepted(m, certs, maxRounds, sc)
		res, wantErr := p.Run(m, certs, Options{Sequential: true, MaxRounds: maxRounds})
		if (gotErr != nil) != (wantErr != nil) || gotErr != nil && !errors.Is(gotErr, ErrDidNotTerminate) {
			t.Fatalf("step %d (%s, n=%d, certs %q, maxRounds %d): RunAccepted err %v, Run err %v", step, m.Name, n, certs, maxRounds, gotErr, wantErr)
		}
		if wantErr == nil && got != res.Accepted() {
			t.Fatalf("step %d (%s, n=%d, certs %q): RunAccepted = %v, Run.Accepted = %v", step, m.Name, n, certs, got, res.Accepted())
		}
		if repeat && sc.NodeRuns() != runs {
			t.Fatalf("step %d (%s): repeating the last run's certificates started %d nodes, want 0", step, m.Name, sc.NodeRuns()-runs)
		}
	}
}

// sameLists reports whether a trace's certificate rows equal certs.
func sameLists(rows, certs [][]string) bool {
	for u, row := range rows {
		if !sameCerts(row, certList(certs, u)) {
			return false
		}
	}
	return true
}

// TestIncrementalRunMatchesRun drives long generated run sequences
// through one Scratch each (see checkIncrementalSequence).
func TestIncrementalRunMatchesRun(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		data := make([]byte, 40+rng.Intn(1200))
		rng.Read(data)
		checkIncrementalSequence(t, data)
	}
}

// TestIncrementalRunSkipsUnreachedNodes: on a long path, a certificate
// change at one end of a two-round machine reaches only the nodes
// within one hop, so the run after it restarts exactly those two
// nodes, and restarts none when nothing changed.
func TestIncrementalRunSkipsUnreachedNodes(t *testing.T) {
	t.Parallel()
	g := graph.Path(8)
	p, err := Prepare(g, graph.GloballyUnique(g))
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 sends the certificate; round 2 reads the neighbours' and
	// halts.
	m := &Machine{
		Name: "test:cert-echo",
		Init: func(in Input) any { return in.Certs[0] },
		Round: func(state any, round int, recv []string) ([]string, bool) {
			if round == 1 {
				return []string{state.(string), state.(string)}, false
			}
			return nil, true
		},
		Output: func(any) string { return "1" },
	}
	certs := make([][]string, g.N())
	for u := range certs {
		certs[u] = []string{"0"}
	}
	sc := p.NewScratch()
	for i, want := range []int64{8, 0, 2} {
		if i == 2 {
			certs[0] = []string{"1"}
		}
		runs := sc.NodeRuns()
		if ok, err := p.RunAccepted(m, certs, 0, sc); err != nil || !ok {
			t.Fatalf("run %d: (%v, %v), want (true, nil)", i, ok, err)
		}
		if got := sc.NodeRuns() - runs; got != want {
			t.Fatalf("run %d started %d nodes, want %d", i, got, want)
		}
	}
}

// FuzzIncrementalRun is checkIncrementalSequence over fuzzer bytes.
func FuzzIncrementalRun(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64+rng.Intn(256))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIncrementalSequence(t, data)
	})
}
