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
	fold := func(s *st, parts ...string) { s.h = foldHash(s.h, parts...) }
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

// foldHash folds parts into the running hash h.
func foldHash(h uint64, parts ...string) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(h >> (8 * i))
	}
	f.Write(b[:])
	for _, p := range parts {
		f.Write([]byte(p))
		f.Write([]byte{0})
	}
	return f.Sum64()
}

// inPlace sends through the buffer Round is lent (see Machine): each
// round it folds every message it received into a running hash, then
// overwrites each recv[j] with a message made from the hash, j and the
// message recv[j] held, and returns recv. Its neighbours thus get
// distinct messages that depend on its whole traffic, so an engine that
// read a send after lending the buffer again, or lent a buffer still
// holding sends, changes some verdict. It halts after a round drawn
// from its certificates (1..3, or past any small round bound under
// "stall"), and its verdict is a bit of the final hash.
func inPlace() *Machine {
	type st struct {
		h    uint64
		halt int
	}
	return &Machine{
		Name: "test:in-place",
		Init: func(in Input) any {
			s := &st{h: foldHash(0, in.Label)}
			s.h = foldHash(s.h, in.Certs...)
			s.halt = 1 + int(s.h%3)
			for _, c := range in.Certs {
				if c == "stall" {
					s.halt = 1000
				}
			}
			return s
		},
		Round: func(state any, round int, recv []string) ([]string, bool) {
			s := state.(*st)
			s.h = foldHash(s.h, recv...)
			for j, m := range recv {
				recv[j] = strconv.FormatUint((s.h>>(4*j)+uint64(len(m)))%7, 10)
			}
			return recv, round >= s.halt
		},
		Output: func(state any) string {
			if state.(*st).h%4 != 0 {
				return "1"
			}
			return "0"
		},
	}
}

// earlyReject has the shape of a colouring verifier that checks each
// node's own certificate first. A node whose first certificate is "0",
// or that has none, rejects and halts in round 1, after sending it.
// Every other node sends its certificate each round, halts in round 2
// (3 under label "1"), and rejects when a message of that last round
// equals its certificate. On a complete graph a low-index node can thus
// reject in its last round, having read every certificate, while a
// higher-index node rejected in round 1 on its own.
func earlyReject() *Machine {
	return &Machine{
		Name: "test:early-reject",
		Init: func(in Input) any {
			s := &earlyState{out: make([]string, in.Degree), last: 2, ok: len(in.Certs) > 0 && in.Certs[0] != "0", blame: -1}
			if len(in.Certs) > 0 {
				for j := range s.out {
					s.out[j] = in.Certs[0]
				}
			}
			if in.Label == "1" {
				s.last = 3
			}
			return s
		},
		Round: func(state any, round int, recv []string) ([]string, bool) {
			s := state.(*earlyState)
			if !s.ok {
				return s.out, true
			}
			if round < s.last {
				return s.out, false
			}
			for j, m := range recv {
				if m == s.out[0] && s.ok {
					s.ok, s.blame = false, j
				}
			}
			return nil, true
		},
		Output: func(state any) string {
			if state.(*earlyState).ok {
				return "1"
			}
			return "0"
		},
	}
}

// earlyState is a node of earlyReject.
type earlyState struct {
	out   []string
	last  int
	ok    bool
	blame int // the first port whose last message equals my certificate
}

// blamingEarlyReject is earlyReject declaring its blame: a node that
// rejects in its last round blames the first port whose message equals
// its certificate, which that neighbour's certificate alone fixed.
func blamingEarlyReject() *Machine {
	m := earlyReject()
	m.Name = "test:early-reject-blame"
	m.Blame = func(state any) int { return state.(*earlyState).blame }
	return m
}

// blamer is a colouring-shaped machine with a Blame, over traffic
// that depends on everything a node has seen. A node whose first
// certificate is "0", or that has none, rejects and halts in round 1.
// Every other node halts in a round drawn from its certificates
// (2..last), folds its label, certificates and every message it
// receives into a running hash, and sends a digit of that hash to each
// neighbour every round. In its last round h it rejects when a
// neighbour's message equals the digit it sends that neighbour, and
// blames the first such port: that message depends only on B(w, h−2)
// and the digit only on B(u, h−2). Otherwise it rejects, blaming no
// port, when the hash of everything it received falls in 1/8 of its
// range.
func blamer(name string, last int) *Machine {
	type st struct {
		h     uint64
		halt  int
		out   []string
		ok    bool
		blame int
	}
	digit := func(s *st, j int) string { return strconv.FormatUint((s.h>>(2*j))%3, 10) }
	return &Machine{
		Name: name,
		Init: func(in Input) any {
			s := &st{h: foldHash(0, in.Label), out: make([]string, in.Degree), blame: -1}
			s.h = foldHash(s.h, in.Certs...)
			s.ok = len(in.Certs) > 0 && in.Certs[0] != "0"
			s.halt = 1
			if s.ok {
				s.halt = 2 + int(s.h%uint64(last-1))
			}
			return s
		},
		Round: func(state any, round int, recv []string) ([]string, bool) {
			s := state.(*st)
			if round == s.halt && s.ok {
				for j, m := range recv {
					if m == digit(s, j) && s.ok {
						s.ok, s.blame = false, j
					}
				}
				if s.ok && foldHash(s.h, recv...)%8 == 0 {
					s.ok = false
				}
			}
			s.h = foldHash(s.h, recv...)
			for j := range s.out {
				s.out[j] = digit(s, j)
			}
			return s.out, round >= s.halt
		},
		Output: func(state any) string {
			if state.(*st).ok {
				return "1"
			}
			return "0"
		},
		Blame: func(state any) int { return state.(*st).blame },
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

// keepRuns counts, per RunAccepted path, the runs of a sequence whose
// keep left some node's certificates free to redraw, and among them
// those whose keep a blame set below every rejecting node's ball.
type keepRuns struct{ dense, traced, blamedDense, blamedTraced int }

func (k *keepRuns) add(o keepRuns) {
	k.dense += o.dense
	k.traced += o.traced
	k.blamedDense += o.blamedDense
	k.blamedTraced += o.blamedTraced
}

// checkIncrementalSequence decodes a connected graph and a sequence of
// runs from src — random jumps, single-node edits, repeats, nil
// certificates, list-length changes, machine switches, resets and small
// round bounds — and drives them all through RunAccepted on one Scratch,
// demanding at every step the verdict and error of Run followed by
// Accepted. A repeat after a run that left a trace must start no node.
// After every run that ends, the certificate lists of the nodes from
// Keep on are redrawn at random, and Run must give the same verdict.
// The machines send from slices of their own (mixer, earlyReject), not
// at all (certParityAccept), and through the buffer they are lent
// (inPlace); blamer's keeps come from the ports it blames, after
// rounds up to 4, so the redraw reaches past B(u, h−2) ∪ B(w, h−2)
// for h−2 up to 2.
func checkIncrementalSequence(t testing.TB, data []byte) keepRuns {
	var freed keepRuns
	redraw := rand.New(rand.NewSource(int64(len(data))))
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
		earlyReject(),
		inPlace(),
		blamingEarlyReject(),
		blamer("test:blame", 2),
		blamer("test:blame-late", 4),
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
		dense := sc.rounds > 0 && sc.rounds-1 >= sc.diam
		runs := sc.NodeRuns()
		got, gotErr := p.RunAccepted(m, certs, maxRounds, sc)
		res, wantErr := p.Run(m, certs, Options{MaxRounds: maxRounds})
		if (gotErr != nil) != (wantErr != nil) || gotErr != nil && !errors.Is(gotErr, ErrDidNotTerminate) {
			t.Fatalf("step %d (%s, n=%d, certs %q, maxRounds %d): RunAccepted err %v, Run err %v", step, m.Name, n, certs, maxRounds, gotErr, wantErr)
		}
		if wantErr == nil && got != res.Accepted() {
			t.Fatalf("step %d (%s, n=%d, certs %q): RunAccepted = %v, Run.Accepted = %v", step, m.Name, n, certs, got, res.Accepted())
		}
		if repeat && sc.NodeRuns() != runs {
			t.Fatalf("step %d (%s): repeating the last run's certificates started %d nodes, want 0", step, m.Name, sc.NodeRuns()-runs)
		}
		if gotErr != nil {
			continue
		}
		keep := sc.Keep()
		if keep < 0 || keep > n {
			t.Fatalf("step %d (%s, n=%d): keep %d", step, m.Name, n, keep)
		}
		if keep == n {
			continue
		}
		balls := n // the keep without blames: the least rejecting ball
		for u, o := range res.Outputs {
			if o != "1" {
				balls = min(balls, 1+sc.reachOf(u, sc.Halt(u)-1))
			}
		}
		if keep > balls {
			t.Fatalf("step %d (%s, n=%d, dense %v): keep %d above the least rejecting ball %d", step, m.Name, n, dense, keep, balls)
		}
		if dense {
			freed.dense++
			if keep < balls {
				freed.blamedDense++
			}
		} else {
			freed.traced++
			if keep < balls {
				freed.blamedTraced++
			}
		}
		// Nodes from keep on get any lists that let them halt: any options
		// but the last, "stall".
		free := make([][]string, n)
		for u := range free {
			if u < keep {
				free[u] = certList(certs, u)
				continue
			}
			free[u] = make([]string, redraw.Intn(3))
			for j := range free[u] {
				free[u][j] = certOptions[redraw.Intn(len(certOptions)-1)]
			}
		}
		res, err := p.Run(m, free, Options{})
		if err != nil || res.Accepted() != got {
			t.Fatalf("step %d (%s, n=%d, dense %v): verdict %v with keep %d under %q, but Run gives (%v, %v) under %q",
				step, m.Name, n, dense, got, keep, certs, res != nil && res.Accepted(), err, free)
		}
	}
	return freed
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
	var freed keepRuns
	for i := 0; i < 300; i++ {
		data := make([]byte, 40+rng.Intn(1200))
		rng.Read(data)
		freed.add(checkIncrementalSequence(t, data))
	}
	if freed.dense == 0 || freed.traced == 0 {
		t.Fatalf("runs with keep < n: %d dense, %d traced; want both paths to free some nodes", freed.dense, freed.traced)
	}
	if freed.blamedDense == 0 || freed.blamedTraced == 0 {
		t.Fatalf("runs whose blame kept less than a ball: %d dense, %d traced; want both paths to jump on blames",
			freed.blamedDense, freed.blamedTraced)
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

// TestDenseKeepIsSmallestRejectingBall: on K5 every node but node 3
// holds certificate "1", so nodes 0, 1, 2 and 4 reject in round 2,
// each having read every certificate, while node 3 rejects in round 1
// on its own "0". Both passes keep the smallest rejecting ball, node 3
// alone, so the keep is 4: the traced first run, and the dense second
// one that follows a run whose rounds reached the diameter.
//
// With blames, node 0 blames node 1, whose certificate equals its own,
// and keeps nodes 0 and 1. Under colours a, b, b, c, a, node 0 rejects
// first but
// blames node 4, which keeps all five nodes, while nodes 1 and 2 blame
// each other and keep three. Node 1's ball is all of K5, no smaller
// than the keep node 0 left, so the dense pass must read it for its
// blame. Both passes keep 3.
func TestDenseKeepIsSmallestRejectingBall(t *testing.T) {
	t.Parallel()
	g := graph.Complete(5)
	p, err := Prepare(g, graph.GloballyUnique(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		m     *Machine
		certs [][]string
		keep  int
	}{
		{earlyReject(), [][]string{{"1"}, {"1"}, {"1"}, {"0"}, {"1"}}, 4},
		{blamingEarlyReject(), [][]string{{"1"}, {"1"}, {"1"}, {"0"}, {"1"}}, 2},
		{blamingEarlyReject(), [][]string{{"a"}, {"b"}, {"b"}, {"c"}, {"a"}}, 3},
	} {
		sc := p.NewScratch()
		for _, path := range []string{"traced", "dense"} {
			if dense := sc.rounds > 0 && sc.rounds-1 >= sc.diam; dense != (path == "dense") {
				t.Fatalf("%s %q %s run: dense pass %v", c.m.Name, c.certs, path, dense)
			}
			ok, err := p.RunAccepted(c.m, c.certs, 0, sc)
			if err != nil || ok {
				t.Fatalf("%s %q %s run: (%v, %v), want (false, nil)", c.m.Name, c.certs, path, ok, err)
			}
			if k := sc.Keep(); k != c.keep {
				t.Fatalf("%s %q %s run: keep %d, want %d", c.m.Name, c.certs, path, k, c.keep)
			}
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
