package main

// This file is the benchmark's only point of contact with the
// repository's packages: every call into router, service, journal,
// graph, simulate, core, search, experiments and props goes through one
// function here, so a refactor of those packages touches this file and
// never a workload. It names no engine ablation knob and no *Opt entry
// point: the workloads measure the default configuration.

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/arbiters"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/router"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simulate"
)

// Aliases keep the rest of the harness free of package names.
type (
	graphT     = graph.Graph
	edgeT      = graph.Edge
	machineT   = simulate.Machine
	inputT     = simulate.Input
	preparedT  = simulate.Prepared
	domainT    = cert.Domain
	arbiterT   = core.Arbiter
	memoT      = core.Memo
	snapshotT  = service.StatsResponse
	phaseStatT = obs.PhaseStats
	poolT      = router.PoolResponse
)

// discardLogger stands in for lphd's JSON request log on traced runs:
// the formatting cost stays, the output goes nowhere.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// traceRing maps the traced flag to the TraceRing setting lphd and
// lphrouter use: 0 is their default ring, -1 turns tracing off.
func traceRing(traced bool) int {
	if traced {
		return 0
	}
	return -1
}

// node is one lphd instance run in-process with lphd's flag defaults:
// worker budget of all CPUs, Prepared cache 128, memo 4096, one job
// worker over a 16-deep queue, and a durable journal.
type node struct {
	svc  *service.Server
	jnl  *journal.Journal
	srv  *http.Server
	addr string
	done chan struct{}
}

func startNode(journalDir string, traced bool) (*node, error) {
	jnl, err := journal.Open(journalDir, journal.Options{})
	if err != nil {
		return nil, err
	}
	cfg := service.Config{CacheSize: 128, MemoSize: 4096, Journal: jnl, TraceRing: traceRing(traced)}
	if traced {
		cfg.Logger = discardLogger()
	}
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		_ = jnl.Close()
		return nil, err
	}
	n := &node{svc: svc, jnl: jnl, addr: ln.Addr().String(), done: make(chan struct{}),
		srv: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns on close
	}()
	return n, nil
}

func (n *node) snapshot() snapshotT { return n.svc.Snapshot() }

// caches reports whether the node's Prepared cache holds the graph.
func (n *node) caches(hash string) bool {
	for _, k := range n.svc.Cache().Keys() {
		if k == hash {
			return true
		}
	}
	return false
}

func (n *node) close() {
	_ = n.srv.Close()
	<-n.done
	n.svc.Close()
	_ = n.jnl.Close()
}

// front is lphrouter run in-process with its flag defaults over the
// given nodes.
type front struct {
	rt   *router.Router
	srv  *http.Server
	addr string
	done chan struct{}
}

func startFront(nodes []string, traced bool) (*front, error) {
	cfg := router.Config{
		Nodes:         nodes,
		Client:        &http.Client{Timeout: 60 * time.Second},
		ProbeInterval: 500 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
		MissBudget:    3,
		RollTimeout:   60 * time.Second,
		TraceRing:     traceRing(traced),
	}
	if traced {
		cfg.Logger = discardLogger()
	}
	rt := router.New(cfg)
	// The first reconcile pass probes every node, as a freshly started
	// router's first tick would.
	rt.Reconcile(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	f := &front{rt: rt, addr: ln.Addr().String(), done: make(chan struct{}),
		srv: &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(ln) // returns on close
	}()
	return f, nil
}

// routerPhases reads the router's own span histograms (nil when
// tracing is off).
func (f *front) routerPhases() []phaseStatT { return f.rt.Tracer().PhaseStats() }

func (f *front) close() {
	_ = f.srv.Close()
	<-f.done
	f.rt.Close()
}

// Phase names the per-layer readout looks up in the span histograms.
const (
	phaseShedWait      = obs.PhaseShedWait
	phasePrepare       = obs.PhasePrepare
	phaseMemo          = obs.PhaseMemo
	phaseEngine        = obs.PhaseEngine
	phaseJournalAppend = obs.PhaseJournalAppend
	phaseJournalFsync  = obs.PhaseJournalFsync
	phaseRouteKey      = "route_key"
)

// decodeBody runs the service's request decoder and graph decoder on
// one request body, exactly as a node does on arrival.
func decodeBody(body []byte) (*graphT, error) {
	req, err := service.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return req.DecodeGraph()
}

func graphHash(g *graphT) string { return g.Hash() }

// prepareServed is the preparation a node runs on a Prepared-cache miss.
func prepareServed(g *graphT) (*preparedT, error) { return service.Prepare(g) }

// prepareWithIDs prepares a game instance under explicit identifiers.
func prepareWithIDs(g *graphT, ids []string) (*preparedT, error) {
	return simulate.Prepare(g, graph.IDAssignment(ids))
}

func newGraph(n int, edges []edgeT, labels []string) (*graphT, error) {
	return graph.New(n, edges, labels)
}

// Graph families from graph/generators.go.
func pathGraph(n int) *graphT  { return graph.Path(n) }
func cycleGraph(n int) *graphT { return graph.Cycle(n) }
func gridGraph(r, c int) *graphT {
	return graph.Grid(r, c)
}
func completeGraph(n int) *graphT { return graph.Complete(n) }

func uniformDomain(n, maxLen int) domainT { return cert.UniformDomain(n, maxLen) }

func sigma(l int) core.Level { return core.Sigma(l) }
func pi(l int) core.Level    { return core.Pi(l) }

// relativize builds the Lemma 11 machine over a main machine and one
// restrictor on the first certificate move.
func relativize(main, restrictor *machineT, level core.Level) *machineT {
	return core.Relativize(main, level, []core.Restrictor{{Machine: restrictor, Move: 1}}, 1)
}

// kColorableMachine is the catalog's k-colorability verifier machine.
func kColorableMachine(k int) *machineT { return arbiters.KColorable(k) }

func newArbiter(m *machineT, level core.Level, bound int) *arbiterT {
	return &core.Arbiter{Machine: m, Level: level, RadiusID: 1,
		Bound: cert.Bound{R: 1, P: cert.Polynomial{bound}}}
}

func newMemo() *memoT { return core.NewMemo(0) }

func memoStats(m *memoT) core.MemoStats { return m.Stats() }

// gameValue evaluates a non-strategy game on the default engine (all
// CPUs, every optimization layer on) with the given subgame memo.
func gameValue(a *arbiterT, prep *preparedT, domains []domainT, memo *memoT) (bool, error) {
	return a.GameValueEngine(prep, domains, core.Engine{Opts: search.Default(), Memo: memo})
}

// referenceValue is the ground truth: the same game on the unoptimized
// reference engine.
func referenceValue(a *arbiterT, prep *preparedT, domains []domainT) (bool, error) {
	return a.GameValueEngine(prep, domains, core.Reference())
}

// experiment is one entry of the reproduction's experiment index.
type experiment struct {
	id  string
	run func() (ok bool)
}

// experimentIndex lists experiments.Index() with each runner bound to
// the parallel search options `lph sweep` and the sweep job use.
func experimentIndex() []experiment {
	var out []experiment
	for _, s := range experiments.Index() {
		s := s
		out = append(out, experiment{id: s.ID, run: func() bool { return s.Run(search.Default()).OK() }})
	}
	return out
}

// Ground-truth oracles for the served properties.
func truthNotAllSelected(g *graphT) bool { return props.NotAllSelected(g) }
func truthOneSelected(g *graphT) bool    { return props.OneSelected(g) }
func truthAllSelected(g *graphT) bool    { return props.AllSelected(g) }
func truthEulerian(g *graphT) bool       { return props.Eulerian(g) }
func truthKColorable(g *graphT, k int) bool {
	return props.KColorable(g, k)
}
