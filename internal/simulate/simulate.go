// Package simulate provides the practical synchronous LOCAL-model engine
// used by the arbiters in this repository. It executes a functional
// "machine" (Init/Round/Output closures) on every node of a labeled graph
// through fault-free synchronous rounds, exactly mirroring the three-phase
// round structure of the distributed Turing machines of Section 4:
// messages are exchanged with neighbors sorted in ascending identifier
// order, and acceptance is by unanimity.
//
// Each round runs its nodes one after another on the calling goroutine;
// parallelism lives a level up, across executions (Batch, and the game
// engines' worker pools).
//
// The per-(graph, id) setup — identifier-sorted neighbor orders and the
// outbox slot map — can be amortized across many executions through
// Prepare; the Batch scheduler runs many (machine, certificates) jobs
// against one Prepared instance over a worker pool with context
// cancellation. See DESIGN.md for the lifecycle.
package simulate

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Input is the initial local information of a node: its label, identifier,
// certificate list, and degree (the number of neighbors, which in the TM
// model is visible as the number of separators on the receiving tape).
type Input struct {
	Node   int // node index; exposed for instrumentation only
	Degree int
	Label  string
	ID     string
	Certs  []string
}

// LocalSize returns len(label#id#κ̄): the size of the node's initial
// internal tape in the TM model, the reference quantity for the
// polynomial step-time bounds of Section 4.
func (in Input) LocalSize() int {
	n := len(in.Label) + 1 + len(in.ID) + 1
	for _, c := range in.Certs {
		n += len(c) + 1
	}
	return n
}

// Machine is a synchronous distributed algorithm. Implementations must be
// deterministic and must not share mutable state across nodes or
// executions: concurrent executions (Batch, the game engines' workers)
// call the three functions concurrently.
//
// Determinism is what lets the incremental fast path
// (Prepared.RunAccepted) reuse an earlier run: it may skip Init, Round
// and Output for a node whose input and received messages are unchanged
// since the previous run on the same Scratch, keeping that node's
// recorded messages and verdict. A node it does run starts from Init
// and gets every round in order, the early ones on the messages the
// trace recorded for them. Side effects of the three functions are thus
// no measure of the work: a counter in Init sees fewer calls than nodes
// × runs.
type Machine struct {
	// Name identifies the machine in errors and experiment output.
	Name string
	// Init creates the per-node state from the node's local input.
	Init func(in Input) any
	// Round processes one communication round. recv holds the messages
	// received from the neighbors in ascending identifier order (empty
	// strings in round 1). It returns the messages to send to those same
	// neighbors (same order; nil means all empty) and whether the node
	// halts after this round. A halted node keeps sending empty messages.
	// A node whose verdict is fixed and that has nothing left to send
	// should halt, because the game walk's keep reads its halting round
	// (see Scratch.Keep).
	//
	// recv is lent for the duration of the call: the pooled fast path
	// (Prepared.RunAccepted) reuses one buffer across nodes and rounds,
	// so a machine must not retain recv past the call. Within the call
	// it may write its sends into recv and return it, as Broadcast does;
	// a machine that does so must read every message it needs first, or
	// copy it out, because an entry it has overwritten is gone.
	//
	// Every engine (Prepared.Run, Prepared.RunAccepted and the Product
	// and Relativize combinators in internal/core) copies the returned
	// send slice before its next Round call, so a machine may also
	// return one slice of its own every round and overwrite it in the
	// next call, as the combinators do.
	Round func(st any, round int, recv []string) (send []string, halt bool)
	// Output extracts the node's final output label (its verdict when the
	// machine is used as a decision procedure: "1" accepts).
	Output func(st any) string
	// Blame is optional. Called on the final state of a node u that
	// rejected and halted in round h ≥ 2, it returns a port j (an index
	// into recv) whose round-h message, sent by the j-th neighbour w in
	// round h−1, fixed the reject together with u's own state after
	// round h−1: u rejects in every run that agrees with this one on
	// the certificates, labels and identifiers in B(u, h−2) ∪
	// B(w, h−2), whatever its other neighbours send. −1 names no port,
	// which is always sound. The contract is on the verdict alone,
	// since a keep reads no halting round of a rejecting node.
	// Prepared.RunAccepted keeps that smaller region in place of u's
	// ball (see Scratch.Keep); Run ignores the field. A wrong port gives
	// wrong game values, so every machine that declares a Blame is
	// checked against this contract on generated inputs
	// (internal/simulate/machinetest). Blame must not allocate or change
	// the state.
	Blame func(st any) int
}

// Broadcast fills recv with msg and returns it: the sends of a node
// that tells every neighbour the same thing, written into the buffer
// Round was lent (see Machine). The node must have read recv first.
func Broadcast(recv []string, msg string) []string {
	for j := range recv {
		recv[j] = msg
	}
	return recv
}

// Result is the outcome of an execution.
type Result struct {
	// Outputs[u] is node u's output label (verdict).
	Outputs []string
	// Rounds is the number of rounds executed until all nodes halted.
	Rounds int
	// RecvBits[u] totals the message bytes received by node u across all
	// rounds; SentBits likewise. These drive the Lemma 13 experiments.
	RecvBits []int
	SentBits []int
}

// Accepted reports acceptance by unanimity: all outputs are "1".
func (r *Result) Accepted() bool {
	for _, o := range r.Outputs {
		if o != "1" {
			return false
		}
	}
	return true
}

// Rejecters returns the indices of nodes whose verdict is not "1".
func (r *Result) Rejecters() []int {
	var out []int
	for u, o := range r.Outputs {
		if o != "1" {
			out = append(out, u)
		}
	}
	return out
}

// Options configure an execution.
type Options struct {
	// MaxRounds bounds the execution; 0 means 64 (defaultMaxRounds).
	// Machines in this repository run in constant round time, so the
	// bound only guards against bugs.
	MaxRounds int
}

// defaultMaxRounds is the round bound of a run that sets none. Run and
// RunAccepted share it, so the reference and pooled game engines agree
// on when a machine did not terminate.
const defaultMaxRounds = 64

// ErrDidNotTerminate is returned when some node never halts.
var ErrDidNotTerminate = errors.New("simulate: machine did not terminate")

// Prepared is a simulation instance with the per-(graph, id) setup —
// identifier-sorted neighbor orders and the outbox slot map — computed
// once, so that many executions (differing machines and certificate
// lists) amortize it. A Prepared is immutable after Prepare (apart from
// its locality table, computed once on first use) and safe for concurrent Run
// calls; game evaluations and the Batch scheduler run
// thousands of executions against a single instance.
type Prepared struct {
	g  *graph.Graph
	id graph.IDAssignment
	// neighborOrder[u] lists u's neighbors sorted by identifier.
	neighborOrder [][]int
	// recvSlot[u][j] is u's slot in the outbox of its j-th neighbor
	// (neighborOrder[u][j]), so incoming messages are located by pure
	// slice indexing on the hot path.
	recvSlot [][]int

	// The locality table, made on first use (see locality).
	localOnce sync.Once
	diam      int
	reach     []int32
}

// Prepare computes the reusable setup for executions of machines on
// (g, id).
func Prepare(g *graph.Graph, id graph.IDAssignment) (*Prepared, error) {
	if len(id) != g.N() {
		return nil, fmt.Errorf("simulate: %d identifiers for %d nodes", len(id), g.N())
	}
	n := g.N()
	p := &Prepared{
		g:             g,
		id:            id,
		neighborOrder: make([][]int, n),
		recvSlot:      make([][]int, n),
	}
	// slotOf[v][w] is w's position in v's neighbor order.
	slotOf := make([]map[int]int, n)
	for u := 0; u < n; u++ {
		p.neighborOrder[u] = id.SortByID(g.Neighbors(u))
		slotOf[u] = make(map[int]int, len(p.neighborOrder[u]))
		for j, w := range p.neighborOrder[u] {
			slotOf[u][w] = j
		}
	}
	for u := 0; u < n; u++ {
		p.recvSlot[u] = make([]int, len(p.neighborOrder[u]))
		for j, v := range p.neighborOrder[u] {
			p.recvSlot[u][j] = slotOf[v][u]
		}
	}
	return p, nil
}

// locality returns the graph's diameter and its reach table, computed
// on first use: reach[u*(diam+1)+r] is the largest node index within
// distance r of u. RunAccepted compares the diameter with a run's round
// count and reads its keep off the table (see Scratch.Keep). Column r
// is the maximum of column r−1 over each closed neighbourhood, and
// radii past the diameter read column diam.
func (p *Prepared) locality() (int, []int32) {
	p.localOnce.Do(func() {
		n, d := p.g.N(), p.g.Diameter()
		w := d + 1
		p.diam, p.reach = d, make([]int32, n*w)
		for u := 0; u < n; u++ {
			p.reach[u*w] = int32(u)
		}
		for r := 1; r <= d; r++ {
			for u := 0; u < n; u++ {
				m := p.reach[u*w+r-1]
				for _, v := range p.neighborOrder[u] {
					m = max(m, p.reach[v*w+r-1])
				}
				p.reach[u*w+r] = m
			}
		}
	})
	return p.diam, p.reach
}

// BallOrder fills order with every node, breadth first from u, and
// dist[v] with v's distance from u; both have length n (a graph is
// connected, so the search reaches every node). Distances never
// decrease along order, so each ball B(u, r) is a prefix of it: the
// nodes before the first one farther than r. It allocates nothing.
func (p *Prepared) BallOrder(u int, order, dist []int32) {
	for v := range dist {
		dist[v] = -1
	}
	dist[u], order[0] = 0, int32(u)
	tail := 1
	for head := 0; head < tail; head++ {
		x := order[head]
		for _, v := range p.neighborOrder[x] {
			if dist[v] < 0 {
				dist[v] = dist[x] + 1
				order[tail] = int32(v)
				tail++
			}
		}
	}
}

// Graph returns the prepared graph.
func (p *Prepared) Graph() *graph.Graph { return p.g }

// ID returns the prepared identifier assignment.
func (p *Prepared) ID() graph.IDAssignment { return p.id }

// Run executes m against the prepared instance under the per-node
// certificate lists certs (nil for none). It is equivalent to
// Run(m, p.Graph(), p.ID(), certs, opt) and safe for concurrent use.
func (p *Prepared) Run(m *Machine, certs [][]string, opt Options) (*Result, error) {
	maxRounds := opt.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds
	}
	n := p.g.N()
	states := make([]any, n)
	halted := make([]bool, n)
	//lint:coarse one machine execution is the engine's unit of cancellation; core polls between leaves
	for u := 0; u < n; u++ {
		var cs []string
		if certs != nil {
			cs = certs[u]
		}
		states[u] = m.Init(Input{
			Node:   u,
			Degree: p.g.Degree(u),
			Label:  p.g.Label(u),
			ID:     p.id[u],
			Certs:  cs,
		})
	}

	res := &Result{
		RecvBits: make([]int, n),
		SentBits: make([]int, n),
	}
	outbox := make([][]string, n) // outbox[u][j]: message to j-th neighbor
	for u := range outbox {
		outbox[u] = make([]string, len(p.neighborOrder[u]))
	}

	//lint:coarse round count is bounded by MaxRounds; core polls between leaves
	for round := 1; round <= maxRounds; round++ {
		next := make([][]string, n)
		//lint:coarse one round over n nodes; core polls between leaves
		for u := 0; u < n; u++ {
			recv := make([]string, len(p.neighborOrder[u]))
			if round > 1 {
				for j, v := range p.neighborOrder[u] {
					recv[j] = outbox[v][p.recvSlot[u][j]]
					res.RecvBits[u] += len(recv[j])
				}
			}
			send := make([]string, len(p.neighborOrder[u]))
			if !halted[u] {
				out, halt := m.Round(states[u], round, recv)
				for j := range out {
					if j < len(send) {
						send[j] = out[j]
					}
				}
				halted[u] = halt
			}
			for _, s := range send {
				res.SentBits[u] += len(s)
			}
			next[u] = send
		}
		outbox = next
		all := true
		for u := 0; u < n; u++ {
			if !halted[u] {
				all = false
				break
			}
		}
		if all {
			res.Rounds = round
			res.Outputs = make([]string, n)
			//lint:coarse output collection over n nodes; core polls between leaves
			for u := 0; u < n; u++ {
				res.Outputs[u] = m.Output(states[u])
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w within %d rounds (%s)", ErrDidNotTerminate, maxRounds, m.Name)
}

// Run executes m on g under the identifier assignment id and per-node
// certificate lists certs (nil for none).
func Run(m *Machine, g *graph.Graph, id graph.IDAssignment, certs [][]string, opt Options) (*Result, error) {
	p, err := Prepare(g, id)
	if err != nil {
		return nil, err
	}
	return p.Run(m, certs, opt)
}

// Decide runs m without certificates and reports unanimous acceptance.
func Decide(m *Machine, g *graph.Graph, id graph.IDAssignment, opt Options) (bool, error) {
	res, err := Run(m, g, id, nil, opt)
	if err != nil {
		return false, err
	}
	return res.Accepted(), nil
}
