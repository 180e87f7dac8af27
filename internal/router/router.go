// Package router is the pool front door: a reverse proxy that
// consistent-hashes requests across many lphd instances for
// Prepared-cache affinity, reconciles desired vs live membership
// through each node's health check, retries shed and drained hops on
// the next ring candidate, and drives rolling restarts through the
// per-instance drain lphd already has.
//
// Routing. Each request's affinity key comes from one byte scan of the
// body, with no JSON decode and no graph built (see affinity and scan):
// graph routes key on graph.HashOf of the body's graph, which equals
// the graph.Hash() the node's Prepared cache is keyed by; batches on
// the hash of their graphs' hashes; games on the game name; job
// submissions on their Idempotency-Key (or body hash); and job-id
// routes (GET/DELETE /v1/jobs/{id}) on the job-id→instance binding
// recorded when the submit response passed through. A body the scan
// declines keys on its raw bytes. Keys score members with rendezvous
// hashing, so membership changes remap only the departed member's keys
// (≤ K/N of K keys, property-tested in ring_test.go).
//
// Membership. A reconciler loop full-state-syncs the desired instance
// list against each node's GET /v1/healthz: healthy nodes are active,
// draining nodes are demoted to reads-only (an lphd that reports
// draining sheds writes itself), and nodes that miss the probe budget
// are evicted as ghosts — never a candidate, revived the moment they
// answer again (a restarted node rejoins with its journal replayed).
//
// Retries. A hop that fails at the transport level, or answers a
// shed/drain verdict (429, or 503 carrying Retry-After), moves on to
// the next ring candidate. When every candidate says backpressure, the
// last verdict is relayed untouched — its Retry-After is the honest
// one. The router's own traceparent rides every hop, so one trace id
// spans router and node, and appears in both debug rings.
//
// Router-owned routes (everything else proxies):
//
//	GET  /v1/router/healthz  router liveness: {"ok":true,...}
//	GET  /v1/router/pool     membership, counters, roll progress
//	POST /v1/admin/roll      rolling restart, one node at a time
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Router-local span phases; they register lazily in the router's own
// tracer, so the node-side canonical phase list is untouched.
const (
	phaseRouteKey = "route_key" // affinity-key extraction
	phaseProxyHop = "proxy_hop" // one proxied attempt against one node
)

// maxProxyBody bounds the request bytes the router will buffer for
// hashing and replay across retries — the node enforces its own 4 MiB
// decode bound, the router allows the same plus headroom so the node,
// not the proxy, is the authority on too-large.
const maxProxyBody = 5 << 20

// Config configures a Router. Only Nodes is required.
type Config struct {
	// Nodes is the desired pool: "host:port" listen addresses of the
	// lphd instances the router fronts. The reconciler full-state-syncs
	// live membership against this list.
	Nodes []string
	// Client issues every outbound request (proxy hops and probes).
	// nil means http.DefaultClient. Tests inject clients with short
	// timeouts; production wants sane transport-level bounds too.
	Client *http.Client
	// ProbeInterval is the reconciler cadence; 0 means 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe; 0 means 2s.
	ProbeTimeout time.Duration
	// MissBudget is how many consecutive failed probes evict a member
	// as a ghost; 0 means 3.
	MissBudget int
	// RollTimeout bounds how long the rolling restart waits for one
	// drained node to come back healthy with a fresh instance id before
	// the roll aborts; 0 means 60s.
	RollTimeout time.Duration
	// BindingCap bounds the job-id→instance table; 0 means 4096. At
	// capacity the oldest binding falls off and its job-id routes fall
	// back to the candidate walk.
	BindingCap int
	// Now is the injectable clock; nil means time.Now.
	Now func() time.Time
	// TraceRing sizes the router's completed-trace ring; 0 means 128;
	// negative disables router tracing.
	TraceRing int
	// Logger, when non-nil, receives one line per served request plus
	// membership transitions and roll progress.
	Logger *slog.Logger
}

// Router is the live pool front door. New starts its reconciler;
// Close stops it.
type Router struct {
	client      *http.Client
	ring        *ring
	bindings    *bindingMap
	missBudget  int
	probeEvery  time.Duration
	probeBound  time.Duration
	rollBound   time.Duration
	now         func() time.Time
	tracer      *obs.Tracer
	logger      *slog.Logger
	mux         *http.ServeMux
	lifeCtx     context.Context
	lifeCancel  context.CancelFunc
	wg          sync.WaitGroup
	desiredMu   sync.Mutex
	desired     []string
	rolling     atomic.Bool
	rollMu      sync.Mutex
	roll        RollStatus
	requests    atomic.Uint64 // every request the router served
	proxied     atomic.Uint64 // requests relayed from a node
	retried     atomic.Uint64 // hops abandoned for the next candidate
	unreachable atomic.Uint64 // requests that exhausted every candidate
	evictions   atomic.Uint64 // ghost evictions by the reconciler
}

// New builds a Router over the desired nodes and starts its reconciler
// loop. The nodes are seeded active — traffic flows before the first
// probe cycle, and a node that is actually dead costs one transport
// error and a retry until the reconciler demotes it.
func New(cfg Config) *Router {
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	now := cfg.Now
	if now == nil {
		now = time.Now //lint:wallclock production default; tests inject cfg.Now
	}
	probeEvery := cfg.ProbeInterval
	if probeEvery <= 0 {
		probeEvery = 500 * time.Millisecond
	}
	probeBound := cfg.ProbeTimeout
	if probeBound <= 0 {
		probeBound = 2 * time.Second
	}
	missBudget := cfg.MissBudget
	if missBudget <= 0 {
		missBudget = 3
	}
	rollBound := cfg.RollTimeout
	if rollBound <= 0 {
		rollBound = 60 * time.Second
	}
	bindingCap := cfg.BindingCap
	if bindingCap <= 0 {
		bindingCap = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		client:     client,
		ring:       newRing(),
		bindings:   newBindingMap(bindingCap),
		missBudget: missBudget,
		probeEvery: probeEvery,
		probeBound: probeBound,
		rollBound:  rollBound,
		now:        now,
		logger:     cfg.Logger,
		mux:        http.NewServeMux(),
		lifeCtx:    ctx,
		lifeCancel: cancel,
		desired:    normalizeAddrs(cfg.Nodes),
	}
	if cfg.TraceRing >= 0 {
		rt.tracer = obs.NewTracer(obs.TracerConfig{
			Now: now, RingSize: cfg.TraceRing, Logger: cfg.Logger,
		})
	}
	for _, addr := range rt.desired {
		rt.ring.observe(addr, stateActive, true, rt.missBudget)
	}
	rt.mux.HandleFunc("GET /v1/router/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /v1/router/pool", rt.handlePool)
	rt.mux.HandleFunc("POST /v1/admin/roll", rt.handleRoll)
	rt.wg.Add(1)
	go rt.runReconciler(ctx)
	return rt
}

// normalizeAddrs strips URL schemes so configuration may say either
// "127.0.0.1:8080" or "http://127.0.0.1:8080".
func normalizeAddrs(nodes []string) []string {
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		n = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(n), "http://"), "/")
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// Close stops the reconciler and any in-flight roll, then waits for
// both to exit. In-flight proxied requests are unaffected.
func (rt *Router) Close() {
	rt.lifeCancel()
	rt.wg.Wait()
}

// SetDesired replaces the desired node list; the next reconcile pass
// adopts additions and drops departures (full-state sync, not a diff).
func (rt *Router) SetDesired(nodes []string) {
	rt.desiredMu.Lock()
	rt.desired = normalizeAddrs(nodes)
	rt.desiredMu.Unlock()
}

// desiredNodes snapshots the desired list.
func (rt *Router) desiredNodes() []string {
	rt.desiredMu.Lock()
	defer rt.desiredMu.Unlock()
	return append([]string(nil), rt.desired...)
}

// Handler returns the router's HTTP surface: the router-owned routes,
// everything else proxied to the pool, all behind the same tracing
// middleware discipline as the node (X-Lph-Trace echoed, adopted
// traceparent honored, one trace per request in the debug ring).
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.requests.Add(1)
		tr := rt.tracer.Start(r.Header.Get("traceparent"))
		if tr != nil {
			w.Header().Set("X-Lph-Trace", tr.ID())
			r = r.WithContext(obs.NewContext(r.Context(), tr))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if _, pattern := rt.mux.Handler(r); pattern != "" {
			rt.mux.ServeHTTP(sw, r)
			tr.Finish(r.Pattern, sw.status)
			return
		}
		rt.serveProxy(sw, r)
		tr.Finish("proxy", sw.status)
	})
}

// statusWriter captures the response status for the trace record.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// fail answers a router-originated error (the proxied path relays node
// errors untouched) in the node's error-body shape: message + trace.
func (rt *Router) fail(w http.ResponseWriter, r *http.Request, status int, msg string) {
	body := map[string]string{"error": msg}
	if id := obs.FromContext(r.Context()).ID(); id != "" {
		body["trace"] = id
	}
	writeJSON(w, status, body)
}

// serveProxy routes one non-router request: pick the candidate order,
// walk it until a node answers with something other than transport
// failure or retryable backpressure, and relay that response.
func (rt *Router) serveProxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
	if err != nil {
		rt.fail(w, r, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	if len(body) > maxProxyBody {
		rt.fail(w, r, http.StatusRequestEntityTooLarge, "request body exceeds the proxy bound")
		return
	}
	sp := obs.StartSpan(r.Context(), phaseRouteKey)
	candidates := rt.route(r, body)
	sp.End()
	if len(candidates) == 0 {
		rt.unreachable.Add(1)
		rt.fail(w, r, http.StatusServiceUnavailable, "no eligible instance in the pool")
		return
	}
	_, isJobRoute := jobID(r)
	var last *http.Response
	var lastAddr string
	for i, addr := range candidates {
		hop := obs.StartSpan(r.Context(), phaseProxyHop)
		resp, err := rt.forward(r, addr, body)
		hop.End()
		if err != nil {
			// Transport failure: the node is gone or going; the reconciler
			// will evict it, this request just moves on.
			rt.retried.Add(1)
			rt.logf("hop failed", "addr", addr, "path", r.URL.Path, "err", err.Error())
			continue
		}
		// Job-id routes walk 404s too: a router restart forgets its
		// bindings but the job did not move, so the walk asks each read
		// candidate in ring order until the owner answers. A genuinely
		// unknown id exhausts the walk and relays the last 404.
		if i < len(candidates)-1 && (retryable(resp) || (isJobRoute && resp.StatusCode == http.StatusNotFound)) {
			// Shed or draining verdict with candidates left: release the
			// connection and try the next shard. The last candidate's
			// verdict relays as-is — its Retry-After is the honest hint.
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			rt.retried.Add(1)
			continue
		}
		last, lastAddr = resp, addr
		break
	}
	if last == nil {
		rt.unreachable.Add(1)
		rt.fail(w, r, http.StatusBadGateway, "no reachable instance for this request")
		return
	}
	defer last.Body.Close()
	rt.proxied.Add(1)
	rt.relay(w, r, last, lastAddr)
}

// route computes the candidate order for a request. Job-id routes
// consult the binding table first: the job lives on exactly one node,
// so a bound id routes there (plus the read ring as fallback for the
// walk when the binding is gone — a router restart forgets bindings,
// the job does not move).
func (rt *Router) route(r *http.Request, body []byte) []string {
	if id, ok := jobID(r); ok {
		rest := rt.ring.candidates("job/"+id, false)
		if addr, ok := rt.bindings.get(id); ok {
			ordered := make([]string, 0, len(rest)+1)
			ordered = append(ordered, addr)
			for _, a := range rest {
				if a != addr {
					ordered = append(ordered, a)
				}
			}
			return ordered
		}
		return rest
	}
	key, write := affinity(r, body)
	return rt.ring.candidates(key, write)
}

// jobID extracts the id of a GET/DELETE /v1/jobs/{id} request.
func jobID(r *http.Request) (string, bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		return "", false
	}
	id, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
	if !ok || id == "" || strings.Contains(id, "/") {
		return "", false
	}
	return id, true
}

// forward issues the request to one node, carrying the router's
// traceparent so the node's trace adopts the same trace id.
func (rt *Router) forward(r *http.Request, addr string, body []byte) (*http.Response, error) {
	url := "http://" + addr + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyProxyHeaders(req.Header, r.Header)
	if tp := obs.FromContext(r.Context()).Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	return rt.client.Do(req)
}

// hopByHop are the headers that describe this connection, not the
// request, and must not be forwarded.
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

func copyProxyHeaders(dst, src http.Header) {
	for k, vv := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		dst[k] = append([]string(nil), vv...)
	}
}

// retryable reports whether a response is backpressure worth spending
// another hop on: a shed (429) or a drain verdict (503 carrying
// Retry-After). A 503 without Retry-After is a node-side cancellation
// or timeout verdict about this request, not about the node — another
// shard would only repeat the work.
func retryable(resp *http.Response) bool {
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return true
	case http.StatusServiceUnavailable:
		return resp.Header.Get("Retry-After") != ""
	}
	return false
}

// relay writes the node's response through. Submit responses are
// captured (bounded) on the way so the job-id→instance binding is
// recorded from the body the client actually received — a 202 fresh
// admission and a 200 idempotent replay both name the node that holds
// the job.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, resp *http.Response, addr string) {
	h := w.Header()
	for k, vv := range resp.Header {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		h[k] = append([]string(nil), vv...)
	}
	isSubmit := r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" &&
		(resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK)
	if !isSubmit {
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		return
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		// The node's response died mid-flight; the client sees the truth.
		rt.fail(w, r, http.StatusBadGateway, "upstream response truncated")
		return
	}
	var sub struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &sub) == nil && sub.ID != "" {
		rt.bindings.put(sub.ID, addr)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// logf emits one structured line when a logger is configured.
func (rt *Router) logf(msg string, args ...any) {
	if rt.logger != nil {
		rt.logger.Info(msg, args...)
	}
}

// HealthzResponse answers GET /v1/router/healthz.
type HealthzResponse struct {
	OK     bool `json:"ok"`
	Active int  `json:"active"`
	Total  int  `json:"total"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	members := rt.ring.snapshot()
	active := 0
	for _, m := range members {
		if m.State == "active" {
			active++
		}
	}
	writeJSON(w, http.StatusOK, HealthzResponse{OK: true, Active: active, Total: len(members)})
}

// PoolResponse answers GET /v1/router/pool: the live membership, the
// desired list, the proxy counters, and the roll status.
type PoolResponse struct {
	Members     []MemberStatus `json:"members"`
	Desired     []string       `json:"desired"`
	Requests    uint64         `json:"requests"`
	Proxied     uint64         `json:"proxied"`
	Retried     uint64         `json:"retried"`
	Unreachable uint64         `json:"unreachable"`
	Evictions   uint64         `json:"evictions"`
	Bindings    int            `json:"bindings"`
	Roll        RollStatus     `json:"roll"`
}

func (rt *Router) handlePool(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, PoolResponse{
		Members:     rt.ring.snapshot(),
		Desired:     rt.desiredNodes(),
		Requests:    rt.requests.Load(),
		Proxied:     rt.proxied.Load(),
		Retried:     rt.retried.Load(),
		Unreachable: rt.unreachable.Load(),
		Evictions:   rt.evictions.Load(),
		Bindings:    rt.bindings.len(),
		Roll:        rt.rollStatus(),
	})
}

// bindingMap is the bounded job-id→instance table. FIFO eviction: at
// capacity the oldest binding falls off and its job-id routes fall
// back to the candidate walk (which finds the job by asking).
type bindingMap struct {
	mu    sync.Mutex
	m     map[string]string
	order []string
	cap   int
}

func newBindingMap(capacity int) *bindingMap {
	return &bindingMap{m: make(map[string]string, capacity), cap: capacity}
}

func (b *bindingMap) put(id, addr string) {
	b.mu.Lock()
	if _, ok := b.m[id]; !ok {
		if len(b.order) >= b.cap {
			delete(b.m, b.order[0])
			b.order = b.order[1:]
		}
		b.order = append(b.order, id)
	}
	b.m[id] = addr
	b.mu.Unlock()
}

func (b *bindingMap) get(id string) (string, bool) {
	b.mu.Lock()
	addr, ok := b.m[id]
	b.mu.Unlock()
	return addr, ok
}

func (b *bindingMap) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

// Tracer exposes the router's tracer (nil when disabled), for tests.
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }
