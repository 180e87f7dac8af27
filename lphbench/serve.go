package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
)

// serveShape is a serving workload's stream and offered load.
type serveShape struct {
	name   string
	stream func(seed int64, n int) *stream
	// rate is the open-loop offered load in ops/s, fixed so that every
	// commit is measured at the same load: about a third of what the
	// pool sustained in the closed loop when the benchmark was written.
	// At half, a host slowed by a noisy neighbour ran near saturation
	// and the open-loop latencies of whole runs multiplied.
	rate float64
	// maxOps bounds how many ops the closed loop can use; the stream is
	// generated this long.
	maxOps int
}

var (
	hotShape = serveShape{name: "serve-hot", stream: hotStream, rate: 2000, maxOps: 60000}
)

// Share of the window given to the open-loop phase; the closed-loop
// capacity phase gets the rest.
const openShare = 0.7

// setupReps is how many times set-up runs per invocation; setup_s is
// the median, and the last pool (or instance set) serves the window.
const setupReps = 9

// clients is the number of concurrent callers and connections: one per
// CPU, as the load generator shares the machine with the pool.
func clients() int { return runtime.NumCPU() }

// pool is two lphd nodes behind one lphrouter, all on loopback TCP.
type pool struct {
	nodes  []*node
	front  *front
	client *http.Client
	base   string
}

func bootPool(dir string, traced bool) (*pool, error) {
	p := &pool{}
	var addrs []string
	for i := 0; i < 2; i++ {
		n, err := startNode(filepath.Join(dir, "journal"+strconv.Itoa(i)), traced)
		if err != nil {
			p.close()
			return nil, err
		}
		p.nodes = append(p.nodes, n)
		addrs = append(addrs, n.addr)
	}
	f, err := startFront(addrs, traced)
	if err != nil {
		p.close()
		return nil, err
	}
	p.front = f
	p.base = "http://" + f.addr
	p.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: clients(), MaxConnsPerHost: clients(), DisableCompression: true,
	}}
	return p, nil
}

func (p *pool) close() {
	if p.client != nil {
		p.client.CloseIdleConnections()
	}
	if p.front != nil {
		p.front.close()
	}
	for _, n := range p.nodes {
		n.close()
	}
}

// send issues one request and returns the status and body.
func (p *pool) send(base, method, path string, body []byte, idemKey string) (int, []byte, error) {
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do performs one stream op against base and checks its answer.
func (p *pool) do(base string, r request) error {
	if r.job {
		return p.doJob(base, r)
	}
	code, b, err := p.send(base, http.MethodPost, r.path, r.body, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", r.path, code, bytes.TrimSpace(b))
	}
	var v struct {
		Holds *bool `json:"holds"`
	}
	if err := json.Unmarshal(b, &v); err != nil || v.Holds == nil {
		return fmt.Errorf("%s: unreadable verdict %q", r.path, b)
	}
	if *v.Holds != r.want {
		return fmt.Errorf("%s: wrong verdict %t on graph %d, ground truth %t", r.path, *v.Holds, r.graph, r.want)
	}
	return nil
}

// doJob submits a keyed experiment job and reads its status back.
func (p *pool) doJob(base string, r request) error {
	code, b, err := p.send(base, http.MethodPost, r.path, r.body, r.idemKey)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return fmt.Errorf("job submit: status %d: %s", code, bytes.TrimSpace(b))
	}
	var st struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
		return fmt.Errorf("job submit: unreadable status %q", b)
	}
	code, b, err = p.send(base, http.MethodGet, "/v1/jobs/"+st.ID, nil, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("job get: status %d: %s", code, bytes.TrimSpace(b))
	}
	id := st.ID
	if err := json.Unmarshal(b, &st); err != nil || st.ID != id {
		return fmt.Errorf("job get: status for %s reads %q", id, b)
	}
	if st.State == "done" {
		var res struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(st.Result, &res); err != nil || !res.OK {
			return fmt.Errorf("job %s finished without an OK report: %s", id, st.Result)
		}
	}
	if st.State == "failed" || st.State == "cancelled" {
		return fmt.Errorf("job %s ended %s", id, st.State)
	}
	return nil
}

// setUp boots a pool and, on serve-hot, primes every hot body through
// it. It returns the pool and how long that took.
func setUp(dir string, traced bool, s *stream) (*pool, time.Duration, error) {
	t := time.Now()
	p, err := bootPool(dir, traced)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range s.prime {
		if err := p.do(p.base, r); err != nil {
			p.close()
			return nil, 0, fmt.Errorf("priming: %w", err)
		}
	}
	return p, time.Since(t), nil
}

// pass is one timed window against a pool: the open loop at the shape's
// fixed rate, then the closed-loop capacity phase.
type pass struct {
	open, closed phaseResult
	closedRates  []float64 // successful ops/s of each closed-loop segment
	heapMB       float64
	before       usage
	after        usage
	sent         []bool // stream indices sent, for affinity accounting
}

func timedPass(p *pool, s *stream, sh serveShape, window time.Duration) (*pass, error) {
	openDur := time.Duration(float64(window) * openShare)
	ps := &pass{sent: make([]bool, len(s.reqs))}
	do := func(i int) error {
		i %= len(s.reqs)
		ps.sent[i] = true
		return p.do(p.base, s.reqs[i])
	}
	heap := startHeapSampler()
	ps.before = readUsage()
	ps.open = runOpen(sh.rate, clients(), openDur, 0, do)
	var next atomic.Int64
	next.Store(int64(len(ps.open.lagMS)) - 1)
	for k := 0; k < segments; k++ {
		r := runClosed(clients(), (window-openDur)/segments, func() int { return int(next.Add(1)) }, do)
		ps.closedRates = append(ps.closedRates, float64(len(r.latMS))/r.elapsed.Seconds())
		ps.closed.attempted += r.attempted
		ps.closed.failed += r.failed
		ps.closed.elapsed += r.elapsed
		ps.closed.errs = append(ps.closed.errs, r.errs...)
	}
	ps.after = readUsage()
	ps.heapMB = heap.finish()
	if err := checkSteady(ps.open, sh.rate, clients()); err != nil {
		return nil, err
	}
	if n := int(next.Load()) + 1; n > len(s.reqs) {
		return nil, fmt.Errorf("stream of %d ops exhausted (%d used); raise maxOps", len(s.reqs), n)
	}
	return ps, nil
}

func (ps *pass) attempted() int { return ps.open.attempted + ps.closed.attempted }
func (ps *pass) failed() int    { return ps.open.failed + ps.closed.failed }

// runServe runs a serving workload.
func runServe(c config, sh serveShape) (*outcome, error) {
	window := c.window
	if c.traced {
		// The traced mode measures an untraced and a traced pass, half
		// the window each, so both fit in one invocation.
		window /= 2
	}
	s := sh.stream(c.seed, int(sh.rate*window.Seconds()*openShare)+sh.maxOps)

	var setups []float64
	var p *pool
	for i := 0; i < setupReps; i++ {
		if p != nil {
			p.close()
		}
		var d time.Duration
		var err error
		p, d, err = setUp(filepath.Join(c.tmp, "setup"+strconv.Itoa(i)), false, s)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	ps, err := timedPass(p, s, sh, window)
	p.close()
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: ps.attempted(), failed: ps.failed(), metrics: metricSet{},
		offered: sh.rate, clients: clients()}
	out.errs = append(ps.open.errs, ps.closed.errs...)
	fmt.Fprintf(os.Stderr, "lphbench: %s: open loop %d ops at %.0f ops/s, closed loop %d ops in %.1fs\n",
		sh.name, ps.open.attempted, sh.rate, ps.closed.attempted, ps.closed.elapsed.Seconds())
	if !c.traced {
		m := out.metrics
		m.add("setup_s", median(setups), "s")
		p50, ok50 := segmentQuantile(ps.open.latMS, 0.50)
		tail, okTail := percentile(ps.open.latMS, tailQuantile(sh.name))
		if !ok50 || !okTail {
			return nil, fmt.Errorf("only %d open-loop samples: too few for the reported percentiles", len(ps.open.latMS))
		}
		m.add("latency_p50_ms", p50, "ms")
		m.add("latency_tail_ms", tail, "ms")
		m.add("ops_per_s", median(ps.closedRates), "1/s")
		m.add("heap_peak_mb", ps.heapMB, "MiB")
		return out, nil
	}
	return tracedServe(c, sh, s, ps, out, window)
}

// tracedServe runs the traced pass on a fresh traced pool and derives
// the per-layer metrics from it; untraced is the pass just measured.
func tracedServe(c config, sh serveShape, s *stream, untraced *pass, out *outcome, window time.Duration) (*outcome, error) {
	p, _, err := setUp(filepath.Join(c.tmp, "traced"), true, s)
	if err != nil {
		return nil, err
	}
	defer p.close()
	before := p.snapshots()
	poolBefore, err := p.poolCounters()
	if err != nil {
		return nil, err
	}
	ps, err := timedPass(p, s, sh, window)
	if err != nil {
		return nil, err
	}
	out.attempted += ps.attempted()
	out.failed += ps.failed()
	out.errs = append(out.errs, ps.open.errs...)
	out.errs = append(out.errs, ps.closed.errs...)
	after := p.snapshots()
	poolAfter, err := p.poolCounters()
	if err != nil {
		return nil, err
	}
	m := out.metrics
	zeroLayerMetrics(m)

	d := diffSnapshots(before, after)
	m.add("service.memo_hit_frac", ratio(d.memoHits, d.memoHits+d.memoMisses), "ratio")
	m.add("service.memo_evictions", float64(d.memoEvictions), "count")
	m.add("service.cache_hit_frac", ratio(d.cacheHits, d.cacheHits+d.cacheMisses), "ratio")
	m.add("service.cache_evictions", float64(d.cacheEvictions), "count")
	m.add("service.shed_frac", ratio(d.shed, d.requests), "ratio")
	m.add("journal.appends_per_job", ratio(d.appends, d.submitted), "count")
	keyed := 0
	for i, sent := range ps.sent {
		if sent && s.reqs[i].job {
			keyed++
		}
	}
	m.add("jobs.idem_hit_frac", ratio(d.idemHits, uint64(keyed)), "ratio")
	m.add("router.retried", float64(poolAfter-poolBefore), "count")

	// Affinity over the pool's whole life: each distinct graph should be
	// prepared on exactly one node, once.
	distinct := map[int]bool{}
	for _, r := range s.prime {
		distinct[r.graph] = true
	}
	for i, sent := range ps.sent {
		if sent && !s.reqs[i].job {
			distinct[s.reqs[i].graph] = true
		}
	}
	m.add("router.affinity_frac", ratio(uint64(len(distinct)), after.cacheMisses), "ratio")

	phases := p.nodePhases()
	addPhase(m, "service.memo_phase_p50_us", phases, phaseMemo, 0.5, 1e6, "us")
	addPhase(m, "service.shed_wait_p99_ms", phases, phaseShedWait, 0.99, 1e3, "ms")
	addPhase(m, "core.engine_p50_ms", phases, phaseEngine, 0.5, 1e3, "ms")
	addPhase(m, "simulate.prepare_phase_p50_us", phases, phasePrepare, 0.5, 1e6, "us")
	addPhase(m, "journal.append_p50_ms", phases, phaseJournalAppend, 0.5, 1e3, "ms")
	addPhase(m, "journal.fsync_p50_ms", phases, phaseJournalFsync, 0.5, 1e3, "ms")
	addPhase(m, "journal.fsync_p99_ms", phases, phaseJournalFsync, 0.99, 1e3, "ms")
	addPhase(m, "router.route_key_p50_us", p.front.routerPhases(), phaseRouteKey, 0.5, 1e6, "us")

	moduleTimings(m, s)
	hop, err := p.hopLatency(s)
	if err != nil {
		return nil, err
	}
	m.add("router.hop_p50_ms", hop, "ms")
	runtimeMetrics(ps.before, ps.after, ps.attempted(), m)

	lag, _ := percentile(append(untraced.open.lagMS, ps.open.lagMS...), 0.99)
	m.add("loadgen.lag_p99_ms", lag, "ms")
	if base := median(untraced.open.latMS); base > 0 {
		m.add("obs.tracing_overhead_frac", median(ps.open.latMS)/base-1, "ratio")
	}
	return out, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func addPhase(m metricSet, name string, stats []phaseStatT, phase string, q, scale float64, unit string) {
	v, _ := phaseQuantile(stats, phase, q)
	m.add(name, v*scale, unit)
}

// counters is the sum of the node counters the per-layer rows use.
type counters struct {
	memoHits, memoMisses, memoEvictions    uint64
	cacheHits, cacheMisses, cacheEvictions uint64
	shed, requests                         uint64
	appends, submitted, idemHits           uint64
}

func (p *pool) snapshots() counters {
	var c counters
	for _, n := range p.nodes {
		s := n.snapshot()
		c.memoHits += s.Memo.Hits
		c.memoMisses += s.Memo.Misses
		c.memoEvictions += s.Memo.Evictions
		c.cacheHits += s.Cache.Hits
		c.cacheMisses += s.Cache.Misses
		c.cacheEvictions += s.Cache.Evictions
		c.shed += s.Shed.Shed
		c.requests += s.Requests.Total
		c.submitted += s.Jobs.Totals.Submitted
		c.idemHits += s.Jobs.Totals.IdemHits
		if s.Jobs.Journal != nil {
			c.appends += s.Jobs.Journal.Appends
		}
	}
	return c
}

func diffSnapshots(a, b counters) counters {
	return counters{
		memoHits: b.memoHits - a.memoHits, memoMisses: b.memoMisses - a.memoMisses,
		memoEvictions: b.memoEvictions - a.memoEvictions,
		cacheHits:     b.cacheHits - a.cacheHits, cacheMisses: b.cacheMisses - a.cacheMisses,
		cacheEvictions: b.cacheEvictions - a.cacheEvictions,
		shed:           b.shed - a.shed, requests: b.requests - a.requests,
		appends: b.appends - a.appends, submitted: b.submitted - a.submitted,
		idemHits: b.idemHits - a.idemHits,
	}
}

// nodePhases concatenates both nodes' span histograms; phaseQuantile
// merges equal phases.
func (p *pool) nodePhases() []phaseStatT {
	var out []phaseStatT
	for _, n := range p.nodes {
		out = append(out, n.snapshot().Phases...)
	}
	return out
}

// poolCounters reads retried + unreachable from GET /v1/router/pool.
func (p *pool) poolCounters() (uint64, error) {
	code, b, err := p.send(p.base, http.MethodGet, "/v1/router/pool", nil, "")
	if err != nil {
		return 0, err
	}
	var v poolT
	if code != http.StatusOK || json.Unmarshal(b, &v) != nil {
		return 0, fmt.Errorf("router pool: status %d: %s", code, b)
	}
	return v.Retried + v.Unreachable, nil
}

// hopLatency is the router's cost per request: the median of routed
// minus direct latency over the same warm verdict requests, each sent
// to the node the router picks for it.
func (p *pool) hopLatency(s *stream) (float64, error) {
	var sample []request
	for _, r := range append(append([]request(nil), s.prime...), s.reqs...) {
		if !r.job {
			sample = append(sample, r)
		}
		if len(sample) == 200 {
			break
		}
	}
	var routed, direct []float64
	for _, r := range sample {
		if err := p.do(p.base, r); err != nil { // warm it where the router sends it
			return 0, err
		}
		owner := p.owner(r)
		t := time.Now()
		if err := p.do(p.base, r); err != nil {
			return 0, err
		}
		routed = append(routed, ms(time.Since(t)))
		t = time.Now()
		if err := p.do("http://"+owner, r); err != nil {
			return 0, err
		}
		direct = append(direct, ms(time.Since(t)))
	}
	return median(routed) - median(direct), nil
}

// owner is the node whose Prepared cache holds the request's graph.
func (p *pool) owner(r request) string {
	g, err := decodeBody(r.body)
	if err == nil {
		h := graphHash(g)
		for _, n := range p.nodes {
			if n.caches(h) {
				return n.addr
			}
		}
	}
	return p.nodes[0].addr
}

// moduleTimings times the harness's own calls into decode, hash and
// prepare on a sample of the workload's request bodies.
func moduleTimings(m metricSet, s *stream) {
	var dec, hash, prep []float64
	for _, r := range s.reqs {
		if r.job {
			continue
		}
		t := time.Now()
		g, err := decodeBody(r.body)
		dec = append(dec, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lphbench: decode:", err)
			continue
		}
		t = time.Now()
		graphHash(g)
		hash = append(hash, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		if _, err := prepareServed(g); err != nil {
			fmt.Fprintln(os.Stderr, "lphbench: prepare:", err)
		}
		prep = append(prep, float64(time.Since(t).Nanoseconds())/1e3)
		if len(dec) == 300 {
			break
		}
	}
	m.add("service.decode_p50_us", median(dec), "us")
	m.add("graph.hash_p50_us", median(hash), "us")
	m.add("simulate.prepare_p50_us", median(prep), "us")
}
