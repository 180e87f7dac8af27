package simulate

import "fmt"

// Scratch holds the buffers of Prepared.RunAccepted and the trace of the
// last run it served, so the exhaustive game evaluations in
// internal/core — which run the same machine on the same Prepared
// instance across thousands of leaves — neither pay one
// slice-allocation storm per leaf nor rerun every node on every leaf. A
// Scratch belongs to one execution at a time: internal/core makes one
// per sequential context of an exhaustive game (the top-level call or
// one fan-out worker) and checks one out of a pool per strategy-game
// leaf. All of its storage is made in one piece per field, by
// NewScratch or when a run needs more rounds than any run before it, so
// a run allocates nothing per node.
type Scratch struct {
	states []any
	recv   []string // one max-degree buffer shared by all nodes of a round

	// The trace of the last run (see RunAccepted).
	machine *Machine // the machine the trace belongs to (nil: none)
	valid   bool     // the trace records a complete run of machine
	rounds  int      // the last run's round count (0: unknown)
	// certs[u] is node u's certificate list (rows alias certFlat).
	certs    [][]string
	certFlat []string
	// sends[(r-1)*slots+off[u]+j] is node u's round-r message to its
	// j-th neighbour, "" once u has halted; rows past used are all "".
	// from[off[u]+j] is the index in a row of the message u receives
	// from its j-th neighbour.
	sends []string
	off   []int // n+1 entries: node u's slots are off[u]..off[u+1]-1
	from  []int
	slots int
	used  int
	halt  []int  // halt[u]: the round node u halted in
	ok    []bool // ok[u]: node u's verdict is "1"

	// Per-run node state.
	live  []bool // u runs in this run; otherwise its trace entries stand
	done  []int  // the round a live node halted in this run (0: running)
	touch []int  // the first round u receives a message the trace does not hold (0: none)

	diam     int
	nodeRuns int64
}

// NewScratch allocates execution buffers sized for p.
func (p *Prepared) NewScratch() *Scratch {
	n := p.g.N()
	sc := &Scratch{
		states: make([]any, n),
		certs:  make([][]string, n),
		off:    make([]int, n+1),
		halt:   make([]int, n),
		ok:     make([]bool, n),
		live:   make([]bool, n),
		done:   make([]int, n),
		touch:  make([]int, n),
		diam:   p.diameter(),
	}
	maxDeg := 0
	for u := 0; u < n; u++ {
		d := len(p.neighborOrder[u])
		sc.off[u+1] = sc.off[u] + d
		maxDeg = max(maxDeg, d)
	}
	sc.slots = sc.off[n]
	sc.from = make([]int, sc.slots)
	for u := 0; u < n; u++ {
		for j, v := range p.neighborOrder[u] {
			sc.from[sc.off[u]+j] = sc.off[v] + p.recvSlot[u][j]
		}
	}
	sc.sends = make([]string, 2*sc.slots)
	sc.recv = make([]string, maxDeg)
	return sc
}

// Reset drops the trace, so the next RunAccepted on sc runs every node
// as if sc were new. Its buffers are kept.
func (sc *Scratch) Reset() {
	sc.machine, sc.valid, sc.rounds = nil, false, 0
}

// NodeRuns returns how many nodes the runs on sc have started from
// Init, replays included.
func (sc *Scratch) NodeRuns() int64 { return sc.nodeRuns }

// RunAccepted is the fast path of Run for game leaves: it executes m
// sequentially against the prepared instance under the per-node
// certificate lists certs (nil for none) and reports unanimous
// acceptance, without materializing a Result or allocating per node.
// maxRounds 0 means 64, as in Options. sc must come from p.NewScratch
// and must not be used by another execution concurrently.
//
// Runs are incremental. sc keeps a trace of its last run — each node's
// certificate list, its messages of every round, its halting round and
// its verdict — and a run of the same machine on sc restarts a node
// only when its certificate list changed or, in a round before it
// halted, a neighbour's message to it did. Such a node starts from Init
// and is replayed through the messages it received before the first
// that differs; every other node keeps its recorded messages and
// verdict, which are exactly what it would compute again. Two runs do
// not use the trace: the first of a machine on sc (or after Reset or an
// error), and a run that follows one whose round count minus one
// reached the graph's diameter, since a certificate change then reaches
// every node anyway. The latter stops at the first rejecting verdict
// and leaves no trace. Every other run calls Output on each node it
// ran, even after a reject, so the trace never holds a stale verdict:
// a skipped Output would cost the node a full rerun on the next run.
//
// The recv slice handed to m.Round aliases a buffer reused across nodes
// and rounds, which is within the Machine contract: Round must not
// retain recv beyond the call (see Machine). RunAccepted is equivalent
// to Run with Options{Sequential: true} followed by Result.Accepted;
// the simulate test suite pins the equivalence over long run sequences
// on one Scratch.
func (p *Prepared) RunAccepted(m *Machine, certs [][]string, maxRounds int, sc *Scratch) (bool, error) {
	if maxRounds == 0 {
		maxRounds = 64
	}
	n := p.g.N()
	if sc.machine != m {
		sc.machine, sc.valid, sc.rounds = m, false, 0
	}
	dense := sc.rounds > 0 && sc.rounds-1 >= sc.diam
	incremental := sc.valid && !dense
	sc.valid = false // until this run completes
	relayout := false
	for u := 0; u < n; u++ {
		cs := certList(certs, u)
		row := sc.certs[u]
		sc.touch[u] = 0
		sc.live[u] = !incremental || !sameCerts(row, cs)
		if !sc.live[u] {
			continue
		}
		p.start(m, u, cs, sc)
		if dense {
			continue // the run leaves no trace
		}
		if len(row) == len(cs) && (row == nil) == (cs == nil) {
			copy(row, cs)
		} else {
			relayout = true
		}
	}
	if relayout {
		sc.layoutCerts(certs)
	}
	rounds := 0
	for r := 1; r <= maxRounds && rounds == 0; r++ {
		row, prev := sc.row(r), sc.row(r-1)
		allHalted := true
		for u := 0; u < n; u++ {
			if !sc.live[u] {
				if sc.touch[u] != r || r > sc.halt[u] {
					if r < sc.halt[u] {
						allHalted = false
					}
					continue
				}
				// A message u has not seen before arrives in round r.
				sc.live[u] = true
				p.start(m, u, certList(certs, u), sc)
				for k := 1; k < r; k++ {
					m.Round(sc.states[u], k, sc.recvOf(u, sc.row(k-1)))
				}
			}
			var out []string
			if sc.done[u] == 0 {
				var halt bool
				out, halt = m.Round(sc.states[u], r, sc.recvOf(u, prev))
				if halt {
					sc.done[u] = r
				} else {
					allHalted = false
				}
			}
			send := row[sc.off[u]:sc.off[u+1]]
			for j := range send {
				s := ""
				if j < len(out) {
					s = out[j]
				}
				if incremental && send[j] != s {
					if w := p.neighborOrder[u][j]; sc.touch[w] == 0 {
						sc.touch[w] = r + 1
					}
				}
				send[j] = s
			}
		}
		if allHalted {
			rounds = r
		}
	}
	if rounds == 0 {
		sc.rounds, sc.used = 0, max(sc.used, maxRounds)
		return false, fmt.Errorf("%w within %d rounds (%s)", ErrDidNotTerminate, maxRounds, m.Name)
	}
	if sc.used > rounds {
		clear(sc.sends[rounds*sc.slots : sc.used*sc.slots])
	}
	sc.used, sc.rounds = rounds, rounds
	if dense {
		for u := 0; u < n; u++ {
			if m.Output(sc.states[u]) != "1" {
				return false, nil
			}
		}
		return true, nil
	}
	accepted := true
	for u := 0; u < n; u++ {
		if sc.live[u] {
			sc.halt[u] = sc.done[u]
			sc.ok[u] = m.Output(sc.states[u]) == "1"
		}
		accepted = accepted && sc.ok[u]
	}
	sc.valid = true
	return accepted, nil
}

// start restarts node u from Init under the certificate list cs.
func (p *Prepared) start(m *Machine, u int, cs []string, sc *Scratch) {
	sc.states[u] = m.Init(Input{
		Node:   u,
		Degree: p.g.Degree(u),
		Label:  p.g.Label(u),
		ID:     p.id[u],
		Certs:  cs,
	})
	sc.done[u] = 0
	sc.nodeRuns++
}

// recvOf fills sc.recv with the messages node u receives in the round
// after prev, the row of its neighbours' messages (all "" when prev is
// nil, in round 1).
func (sc *Scratch) recvOf(u int, prev []string) []string {
	lo, hi := sc.off[u], sc.off[u+1]
	recv := sc.recv[:hi-lo]
	if prev == nil {
		clear(recv)
		return recv
	}
	for j, i := range sc.from[lo:hi] {
		recv[j] = prev[i]
	}
	return recv
}

// row returns the messages of round r (nil for round 0), growing the
// trace storage when no earlier run reached that round.
func (sc *Scratch) row(r int) []string {
	if r == 0 {
		return nil
	}
	if r*sc.slots > len(sc.sends) {
		grown := make([]string, 2*r*sc.slots)
		copy(grown, sc.sends)
		sc.sends = grown
	}
	return sc.sends[(r-1)*sc.slots : r*sc.slots]
}

// layoutCerts lays the trace's certificate rows out afresh for the
// lengths and nil-ness of certs, and copies certs into them.
func (sc *Scratch) layoutCerts(certs [][]string) {
	total := 0
	for u := range sc.certs {
		total += len(certList(certs, u))
	}
	if len(sc.certFlat) < total+1 {
		// One spare entry keeps an empty non-nil row non-nil.
		sc.certFlat = make([]string, total+1)
	}
	off := 0
	for u := range sc.certs {
		cs := certList(certs, u)
		if cs == nil {
			sc.certs[u] = nil
			continue
		}
		sc.certs[u] = sc.certFlat[off : off+len(cs) : off+len(cs)]
		copy(sc.certs[u], cs)
		off += len(cs)
	}
}

// certList returns node u's certificate list (nil when certs is nil).
func certList(certs [][]string, u int) []string {
	if certs == nil {
		return nil
	}
	return certs[u]
}

// sameCerts reports whether a node given b sees the input it saw given
// a: the same strings, and the same nil-ness.
func sameCerts(a, b []string) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
