// Package simulate provides the practical synchronous LOCAL-model engine
// used by the arbiters in this repository. It executes a functional
// "machine" (Init/Round/Output closures) on every node of a labeled graph
// through fault-free synchronous rounds, exactly mirroring the three-phase
// round structure of the distributed Turing machines of Section 4:
// messages are exchanged with neighbors sorted in ascending identifier
// order, and acceptance is by unanimity.
//
// Rounds can be executed concurrently (one goroutine per node, barrier
// between rounds) or sequentially; both modes are deterministic and
// produce identical results, which the tests verify.
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
// deterministic and must not share mutable state across nodes; the engine
// calls the three functions concurrently for different nodes.
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
	//
	// recv is only valid for the duration of the call: the pooled fast
	// path (Prepared.RunAccepted) reuses one buffer across nodes and
	// rounds, so implementations must copy any message they need to keep
	// rather than retaining recv or aliasing into it.
	//
	// Conversely, both engines (Prepared.Run and Prepared.RunAccepted)
	// copy the returned send slice before the next Round call, so a
	// machine may return the same slice every round and overwrite it in
	// the next call; the Product and Relativize combinators in
	// internal/core rely on this.
	Round func(st any, round int, recv []string) (send []string, halt bool)
	// Output extracts the node's final output label (its verdict when the
	// machine is used as a decision procedure: "1" accepts).
	Output func(st any) string
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
	// MaxRounds bounds the execution; 0 means 64. Machines in this
	// repository run in constant round time, so the bound only guards
	// against bugs.
	MaxRounds int
	// Sequential forces single-goroutine execution.
	Sequential bool
}

// ErrDidNotTerminate is returned when some node never halts.
var ErrDidNotTerminate = errors.New("simulate: machine did not terminate")

// Prepared is a simulation instance with the per-(graph, id) setup —
// identifier-sorted neighbor orders and the outbox slot map — computed
// once, so that many executions (differing machines and certificate
// lists) amortize it. A Prepared is immutable after Prepare (apart from
// its diameter, computed once on first use) and safe for concurrent Run
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

	// diam is the graph's diameter, made on first use (see diameter).
	diamOnce sync.Once
	diam     int
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

// diameter returns the graph's diameter, computed on first use.
// RunAccepted compares it with a run's round count.
func (p *Prepared) diameter() int {
	p.diamOnce.Do(func() { p.diam = p.g.Diameter() })
	return p.diam
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
		maxRounds = 64
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
		runNode := func(u int) {
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
		if opt.Sequential {
			//lint:coarse one round over n nodes; core polls between leaves
			for u := 0; u < n; u++ {
				runNode(u)
			}
		} else {
			var wg sync.WaitGroup
			for u := 0; u < n; u++ {
				u := u
				wg.Add(1)
				go func() {
					defer wg.Done()
					runNode(u)
				}()
			}
			wg.Wait()
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
