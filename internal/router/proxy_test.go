package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/service"
)

// These tests run the router against real in-process service nodes
// (httptest servers over service.New), so the whole proxied contract —
// affinity, drain demotion, retry hops, bindings, trace propagation —
// is exercised end to end without processes. The process-level walks
// (SIGKILL failover, journal replay, rolling restart) live in
// internal/routertest.

const (
	triangleBody = `{"graph":{"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","1","1"]},"property":"all-selected"}`

	fixedTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	fixedTraceparent = "00-" + fixedTraceID + "-00f067aa0ba902b7-01"
)

// cycleBody builds the decide request for the n-cycle with all-"1"
// labels — each n is a distinct affinity key.
func cycleBody(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"graph":{"n":%d,"edges":[`, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "[%d,%d]", i, (i+1)%n)
	}
	sb.WriteString(`],"labels":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`"1"`)
	}
	sb.WriteString(`]},"property":"all-selected"}`)
	return sb.String()
}

// pool is N in-process nodes behind one router.
type pool struct {
	svcs  []*service.Server
	nodes []*httptest.Server
	addrs []string
	rt    *Router
	front *httptest.Server
}

// newPool boots n nodes and a router over them. The reconciler runs on
// a one-hour tick, so tests drive Reconcile explicitly and every pass
// is deterministic.
func newPool(t *testing.T, n int, cfg service.Config) *pool {
	t.Helper()
	p := &pool{}
	for i := 0; i < n; i++ {
		svc := service.New(cfg)
		ts := httptest.NewServer(svc.Handler())
		p.svcs = append(p.svcs, svc)
		p.nodes = append(p.nodes, ts)
		p.addrs = append(p.addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	p.rt = New(Config{
		Nodes:         p.addrs,
		Client:        &http.Client{Timeout: 5 * time.Second},
		ProbeInterval: time.Hour,
		ProbeTimeout:  time.Second,
		MissBudget:    2,
	})
	p.front = httptest.NewServer(p.rt.Handler())
	t.Cleanup(func() {
		p.front.Close()
		p.rt.Close()
		for i := range p.svcs {
			p.nodes[i].Close()
			p.svcs[i].Close()
		}
	})
	return p
}

// do issues one request through the router front.
func (p *pool) do(t *testing.T, method, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, p.front.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// servingNode returns the index of the single node whose operation
// counter moved, failing if traffic spread.
func (p *pool) servingNode(t *testing.T, before []uint64) int {
	t.Helper()
	idx := -1
	for i, svc := range p.svcs {
		if svc.Snapshot().Requests.Total > before[i] {
			if idx != -1 {
				t.Fatalf("traffic spread across nodes %d and %d, want affinity to one", idx, i)
			}
			idx = i
		}
	}
	if idx == -1 {
		t.Fatal("no node saw the traffic")
	}
	return idx
}

func (p *pool) counters() []uint64 {
	out := make([]uint64, len(p.svcs))
	for i, svc := range p.svcs {
		out[i] = svc.Snapshot().Requests.Total
	}
	return out
}

// TestAffinityWarmCache: the same graph, posted repeatedly, lands on
// one node every time, and that node's Prepared-cache hit counter
// proves the repeats were served warm — the whole point of hashing on
// the canonical graph hash.
func TestAffinityWarmCache(t *testing.T) {
	t.Parallel()
	p := newPool(t, 3, service.Config{Workers: 2, CacheSize: 8})
	before := p.counters()
	const repeats = 5
	for i := 0; i < repeats; i++ {
		resp, body := p.do(t, http.MethodPost, "/v1/decide", triangleBody, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verify %d: %d %s", i, resp.StatusCode, body)
		}
	}
	home := p.servingNode(t, before)
	cs := p.svcs[home].Cache().Stats()
	if cs.Misses != 1 || cs.Hits < repeats-1 {
		t.Fatalf("home node cache %+v, want 1 miss and >= %d hits", cs, repeats-1)
	}
	// Every other serialization of the triangle keys like the first and
	// reaches the same node.
	var indented bytes.Buffer
	if err := graphio.Encode(&indented, graph.Cycle(3).MustWithLabels([]string{"1", "1", "1"})); err != nil {
		t.Fatal(err)
	}
	const prop = `"property":"all-selected"`
	for _, c := range []struct{ name, body string }{
		{"reordered edges", `{"graph":{"n":3,"edges":[[1,2],[0,1],[2,0]],"labels":["1","1","1"]},` + prop + `}`},
		{"flipped endpoints", `{"graph":{"n":3,"edges":[[1,0],[2,1],[0,2]],"labels":["1","1","1"]},` + prop + `}`},
		{"duplicate edge", `{"graph":{"n":3,"edges":[[0,1],[1,2],[2,0],[1,0]],"labels":["1","1","1"]},` + prop + `}`},
		{"graphio.Encode", `{"graph": ` + indented.String() + `, ` + prop + `}`},
		{"labels before n", `{"graph":{"labels":["1","1","1"],"edges":[[0,1],[1,2],[2,0]],"n":3},` + prop + `}`},
		{"property before graph", `{` + prop + `,"graph":{"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","1","1"]}}`},
		{"workers", `{"graph":{"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","1","1"]},` + prop + `,"workers":2}`},
	} {
		if got, want := graphKey([]byte(c.body)), graphKey([]byte(triangleBody)); got != want {
			t.Errorf("%s: key %s, want the triangle's %s", c.name, got, want)
		}
		mid := p.counters()
		if resp, body := p.do(t, http.MethodPost, "/v1/decide", c.body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", c.name, resp.StatusCode, body)
		}
		if got := p.servingNode(t, mid); got != home {
			t.Errorf("%s: routed to node %d, want the canonical home %d", c.name, got, home)
		}
	}

	// A batch keys on its graphs' hashes, so re-serialized graphs keep
	// it on one node too.
	const square = `{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]],"labels":["1","1","1","1"]}`
	batch := `{"op":"decide",` + prop + `,"graphs":[` + square + `,{"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","1","1"]}]}`
	reserialized := `{"graphs":[{"labels":["1","1","1","1"],"n":4,"edges":[[3,0],[2,1],[1,0],[3,2],[0,1]]},` +
		"\n{ \"n\": 3, \"edges\": [[2,0], [1,2], [0,1]], \"labels\": [\"1\",\"1\",\"1\"] }]," + prop + `,"op":"decide"}`
	if got, want := batchKey([]byte(reserialized)), batchKey([]byte(batch)); got != want || !strings.HasPrefix(got, "batch/") {
		t.Errorf("re-serialized batch key %s, want %s", got, want)
	}
	before = p.counters()
	if resp, body := p.do(t, http.MethodPost, "/v1/batch", batch, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	batchHome := p.servingNode(t, before)
	mid := p.counters()
	if resp, body := p.do(t, http.MethodPost, "/v1/batch", reserialized, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-serialized batch: %d %s", resp.StatusCode, body)
	}
	if got := p.servingNode(t, mid); got != batchHome {
		t.Errorf("re-serialized batch routed to node %d, want its home %d", got, batchHome)
	}
}

// TestRetryOnDrainingNode: a write whose home node is draining but not
// yet demoted (the reconciler has not run) gets the node's 503 +
// Retry-After, and the router spends another hop instead of failing
// the client; after a reconcile pass the draining node is demoted and
// writes avoid it outright, while reads it still owns keep working.
func TestRetryOnDrainingNode(t *testing.T) {
	t.Parallel()
	p := newPool(t, 3, service.Config{Workers: 2, CacheSize: 8})

	// Find the triangle's home, then drain it.
	before := p.counters()
	if resp, body := p.do(t, http.MethodPost, "/v1/decide", triangleBody, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d %s", resp.StatusCode, body)
	}
	home := p.servingNode(t, before)

	// A job admitted on the home node before the drain, for the read
	// check below.
	resp, body := p.do(t, http.MethodPost, "/v1/jobs", `{"job":"experiment","name":"figure5"}`,
		map[string]string{"Idempotency-Key": "pin-home"})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body %s: %v", body, err)
	}
	jobAddr, ok := p.rt.bindings.get(sub.ID)
	if !ok {
		t.Fatalf("no binding recorded for %s", sub.ID)
	}

	p.svcs[home].BeginDrain()

	// Ring still believes the node is active: the hop eats the 503 and
	// retries elsewhere; the client sees success.
	retriedBefore := p.rt.retried.Load()
	if resp, body := p.do(t, http.MethodPost, "/v1/decide", triangleBody, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("verify with draining home: %d %s, want a retried 200", resp.StatusCode, body)
	}
	if p.rt.retried.Load() == retriedBefore {
		t.Fatal("no retry recorded though the home node was draining")
	}

	// Reconcile: the drain is now visible and the node demoted.
	p.rt.Reconcile(context.Background())
	for _, m := range p.rt.ring.snapshot() {
		if m.Addr == p.addrs[home] && m.State != "draining" {
			t.Fatalf("home member %+v after reconcile, want draining", m)
		}
	}
	retriedBefore = p.rt.retried.Load()
	if resp, body := p.do(t, http.MethodPost, "/v1/decide", triangleBody, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("verify after demotion: %d %s", resp.StatusCode, body)
	}
	if p.rt.retried.Load() != retriedBefore {
		t.Fatal("demoted node still consumed a retry hop — it should not be a write candidate at all")
	}

	// The draining node still serves the reads it owns: the job bound
	// to it answers through the router.
	if jobAddr == p.addrs[home] {
		resp, body := p.do(t, http.MethodGet, "/v1/jobs/"+sub.ID, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job read from draining node: %d %s", resp.StatusCode, body)
		}
	}
}

// TestDrainVerdictRelayedHonestly: when every node is draining the
// router has no better shard to offer, so the client must receive the
// nodes' own 503 with its honest Retry-After (derived from the drain
// deadline, in [1, 30] for the default budget) and a JSON body naming
// the trace.
func TestDrainVerdictRelayedHonestly(t *testing.T) {
	t.Parallel()
	p := newPool(t, 3, service.Config{Workers: 2})
	for _, svc := range p.svcs {
		svc.BeginDrain()
	}
	resp, body := p.do(t, http.MethodPost, "/v1/decide", triangleBody,
		map[string]string{"traceparent": fixedTraceparent})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-draining write: %d %s, want 503", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After %q, want an honest integer in [1,30]", resp.Header.Get("Retry-After"))
	}
	var eb map[string]string
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("non-JSON drain verdict %s: %v", body, err)
	}
	if eb["trace"] != fixedTraceID {
		t.Fatalf("drain verdict trace %q, want the propagated %q", eb["trace"], fixedTraceID)
	}
}

// TestOneTraceSpansRouterAndNode is the tentpole's tracing acceptance:
// a single traceparent in produces the same trace id in the router's
// debug ring and in the serving node's, with the node's parent span
// pointing at the router's root span — one trace, two hops.
func TestOneTraceSpansRouterAndNode(t *testing.T) {
	t.Parallel()
	p := newPool(t, 3, service.Config{Workers: 2, CacheSize: 4})
	resp, body := p.do(t, http.MethodPost, "/v1/decide", triangleBody,
		map[string]string{"traceparent": fixedTraceparent})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Lph-Trace"); got != fixedTraceID {
		t.Fatalf("X-Lph-Trace %q, want %q", got, fixedTraceID)
	}
	routerTraces := p.rt.Tracer().Traces(0, "proxy")
	if len(routerTraces) != 1 || routerTraces[0].Trace != fixedTraceID {
		t.Fatalf("router ring %+v, want one proxy trace with id %s", routerTraces, fixedTraceID)
	}
	found := false
	for _, svc := range p.svcs {
		for _, tr := range svc.Tracer().Traces(0, "POST /v1/decide") {
			if tr.Trace != fixedTraceID {
				continue
			}
			found = true
			if tr.ParentSpan != routerTraces[0].Span {
				t.Fatalf("node parent span %q, want the router's root span %q", tr.ParentSpan, routerTraces[0].Span)
			}
		}
	}
	if !found {
		t.Fatalf("no node trace carries %s — the traceparent did not cross the hop", fixedTraceID)
	}
	// The router's trace timed its phases.
	phases := make(map[string]bool)
	for _, sp := range routerTraces[0].Spans {
		phases[sp.Phase] = true
	}
	if !phases[phaseRouteKey] || !phases[phaseProxyHop] {
		t.Fatalf("router trace spans %+v, want %s and %s", routerTraces[0].Spans, phaseRouteKey, phaseProxyHop)
	}
}

// TestMuxFallbackThroughRouter: an unknown path proxies through and
// comes back as the node's JSON 404 carrying the router's trace id —
// the error contract holds across the hop.
func TestMuxFallbackThroughRouter(t *testing.T) {
	t.Parallel()
	p := newPool(t, 2, service.Config{Workers: 1})
	resp, body := p.do(t, http.MethodGet, "/v1/nope", "",
		map[string]string{"traceparent": fixedTraceparent})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: %d %s, want 404", resp.StatusCode, body)
	}
	var eb map[string]string
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("non-JSON 404 through the router %s: %v", body, err)
	}
	if eb["error"] == "" || eb["trace"] != fixedTraceID {
		t.Fatalf("404 body %v, want an error and trace %s", eb, fixedTraceID)
	}
}

// TestFailoverOnDeadNode: SIGKILL at the httptest scale — one node's
// listener closes without ceremony; requests keep succeeding on the
// survivors, the reconciler evicts the ghost after the miss budget,
// and the pool view says so.
func TestFailoverOnDeadNode(t *testing.T) {
	t.Parallel()
	p := newPool(t, 3, service.Config{Workers: 2, CacheSize: 8})
	dead := 1
	p.nodes[dead].Close()

	// Every write succeeds: hops onto the corpse burn a retry, never a
	// client failure. Distinct cycle sizes give distinct affinity keys,
	// so the dead node is somebody's home for at least one of them.
	for n := 3; n < 9; n++ {
		resp, b := p.do(t, http.MethodPost, "/v1/decide", cycleBody(n), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide on C_%d with a dead node: %d %s", n, resp.StatusCode, b)
		}
	}

	// Two reconcile passes spend the miss budget (2 here): ghost.
	p.rt.Reconcile(context.Background())
	p.rt.Reconcile(context.Background())
	var got MemberStatus
	for _, m := range p.rt.ring.snapshot() {
		if m.Addr == p.addrs[dead] {
			got = m
		}
	}
	if got.State != "down" {
		t.Fatalf("dead member %+v after the miss budget, want down", got)
	}
	if p.rt.evictions.Load() == 0 {
		t.Fatal("eviction counter never moved")
	}

	// Down members cost nothing anymore: no retries on further writes.
	retried := p.rt.retried.Load()
	if resp, b := p.do(t, http.MethodPost, "/v1/decide", triangleBody, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-eviction verify: %d %s", resp.StatusCode, b)
	}
	if p.rt.retried.Load() != retried {
		t.Fatal("an evicted ghost still received a hop")
	}
}

// TestRouterOwnRoutes: the router-owned surface — its health check and
// the pool view — answers locally with the shared JSON discipline.
func TestRouterOwnRoutes(t *testing.T) {
	t.Parallel()
	p := newPool(t, 3, service.Config{Workers: 1})
	resp, body := p.do(t, http.MethodGet, "/v1/router/healthz", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router healthz: %d %s", resp.StatusCode, body)
	}
	var hz HealthzResponse
	if err := json.Unmarshal(body, &hz); err != nil || !hz.OK || hz.Active != 3 || hz.Total != 3 {
		t.Fatalf("router healthz body %s (%v), want ok with 3/3 active", body, err)
	}
	resp, body = p.do(t, http.MethodGet, "/v1/router/pool", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pool: %d %s", resp.StatusCode, body)
	}
	var pr PoolResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("pool body %s: %v", body, err)
	}
	if len(pr.Members) != 3 || len(pr.Desired) != 3 || pr.Roll.Active {
		t.Fatalf("pool view %+v, want 3 members, 3 desired, no roll", pr)
	}
	if resp.Header.Get("X-Lph-Trace") == "" {
		t.Fatal("router-owned route without X-Lph-Trace")
	}
}

// TestJobBindingSurvivesAndWalksWithout: a submit records the binding;
// forgetting it (as a router restart would) still finds the job by
// walking the read candidates; a genuinely unknown id relays the 404.
func TestJobBindingSurvivesAndWalksWithout(t *testing.T) {
	t.Parallel()
	p := newPool(t, 3, service.Config{Workers: 2})
	resp, body := p.do(t, http.MethodPost, "/v1/jobs", `{"job":"experiment","name":"figure5"}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body %s: %v", body, err)
	}
	if _, ok := p.rt.bindings.get(sub.ID); !ok {
		t.Fatalf("no binding for %s after submit", sub.ID)
	}
	if resp, b := p.do(t, http.MethodGet, "/v1/jobs/"+sub.ID, "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("bound job get: %d %s", resp.StatusCode, b)
	}
	// Amnesiac router: drop the binding, the walk still finds the node
	// holding the job. The job-id keyspace walk asks nodes in ring
	// order; at most N-1 of them answer 404 before the owner answers.
	p.rt.bindings = newBindingMap(16)
	if resp, b := p.do(t, http.MethodGet, "/v1/jobs/"+sub.ID, "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("unbound job get: %d %s, want the walk to find it", resp.StatusCode, b)
	}
	if resp, b := p.do(t, http.MethodGet, "/v1/jobs/j999", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d %s, want a relayed 404", resp.StatusCode, b)
	}
}
