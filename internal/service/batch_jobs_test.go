package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/service"
)

// doJSON issues a request with a method and decodes the JSON body into v.
func doJSON(t *testing.T, ts *httptest.Server, method, path, body string, v any) (int, http.Header) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// waitJob polls GET /v1/jobs/{id} until the job reaches want.
func waitJob(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st jobs.Status
		code, _ := doJSON(t, ts, http.MethodGet, "/v1/jobs/"+id, "", &st)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State == want {
			return st
		}
		if st.State.Finished() {
			t.Fatalf("job %s finished as %s (want %s): %+v", id, st.State, want, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceBatch pins the /v1/batch contract: many graphs, one op,
// per-item verdicts and errors, cache progression across batches.
func TestServiceBatch(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 4, CacheSize: 8})
	mixed := `{"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","0","1"]}`
	body := `{"op":"decide","property":"all-selected","graphs":[` +
		triangleJSON + `,` + mixed + `,{"n":2,"edges":[]}],"workers":4}`

	var br service.BatchResponse
	if code, _ := doJSON(t, ts, http.MethodPost, "/v1/batch", body, &br); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if br.Op != "batch" || br.Verb != "decide" || br.Name != "all-selected" || br.Workers != 4 {
		t.Fatalf("batch header %+v", br)
	}
	if len(br.Results) != 3 || br.Failed != 1 {
		t.Fatalf("batch results %+v", br)
	}
	for i, want := range []struct {
		holds bool
		err   bool
	}{{true, false}, {false, false}, {false, true}} {
		item := br.Results[i]
		if item.Index != i || item.Holds != want.holds || (item.Error != "") != want.err || item.Cached {
			t.Fatalf("item %d: %+v", i, item)
		}
	}
	// The same batch again: both valid graphs must now be served warm.
	var br2 service.BatchResponse
	doJSON(t, ts, http.MethodPost, "/v1/batch", body, &br2)
	if !br2.Results[0].Cached || !br2.Results[1].Cached {
		t.Fatalf("second batch not cached: %+v", br2.Results)
	}
	// Verify ops run through the same route.
	var br3 service.BatchResponse
	if code, _ := doJSON(t, ts, http.MethodPost, "/v1/batch",
		`{"op":"verify","property":"3-colorable","graphs":[`+triangleJSON+`,`+c5JSON+`]}`, &br3); code != http.StatusOK {
		t.Fatal("verify batch failed")
	}
	if !br3.Results[0].Holds || !br3.Results[1].Holds || br3.Failed != 0 {
		t.Fatalf("verify batch %+v", br3.Results)
	}
}

// TestServiceBatchErrors pins the 400 contract of /v1/batch.
func TestServiceBatchErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2})
	var tooMany strings.Builder
	tooMany.WriteString(`{"op":"decide","property":"all-selected","graphs":[`)
	for i := 0; i < 257; i++ {
		if i > 0 {
			tooMany.WriteString(",")
		}
		tooMany.WriteString(triangleJSON)
	}
	tooMany.WriteString(`]}`)
	for _, tc := range []struct{ name, body string }{
		{"missing-op", `{"property":"all-selected","graphs":[` + triangleJSON + `]}`},
		{"bogus-op", `{"op":"reduce","property":"all-selected","graphs":[` + triangleJSON + `]}`},
		{"unknown-property", `{"op":"decide","property":"nope","graphs":[` + triangleJSON + `]}`},
		{"empty-graphs", `{"op":"decide","property":"all-selected","graphs":[]}`},
		{"oversized", tooMany.String()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e map[string]string
			code, _ := doJSON(t, ts, http.MethodPost, "/v1/batch", tc.body, &e)
			if code != http.StatusBadRequest || e["error"] == "" {
				t.Fatalf("status %d, body %v", code, e)
			}
		})
	}
}

// TestServiceJobLifecycle drives an experiment job queued → running →
// done over the HTTP routes: 202 on submit, progress counters on GET,
// the TTL'd result payload, and 409 on cancelling a finished job.
func TestServiceJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2})
	var sub jobs.Status
	code, _ := doJSON(t, ts, http.MethodPost, "/v1/jobs", `{"job":"experiment","name":"figure5"}`, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if sub.ID != "j1" || sub.Kind != "experiment" || sub.State != jobs.StateQueued {
		t.Fatalf("submit %+v", sub)
	}
	st := waitJob(t, ts, "j1", jobs.StateDone)
	if st.Done != 1 || st.Total != 1 || st.Error != "" {
		t.Fatalf("done status %+v", st)
	}
	res, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var sw service.SweepResult
	if err := json.Unmarshal(res, &sw); err != nil {
		t.Fatal(err)
	}
	if !sw.OK || len(sw.Experiments) != 1 || sw.Experiments[0].ID != "figure5" || !sw.Experiments[0].OK {
		t.Fatalf("sweep result %+v", sw)
	}
	// Cancelling a finished job conflicts, carrying the terminal state.
	var final jobs.Status
	if code, _ := doJSON(t, ts, http.MethodDelete, "/v1/jobs/j1", "", &final); code != http.StatusConflict {
		t.Fatalf("cancel finished: status %d", code)
	}
	if final.State != jobs.StateDone {
		t.Fatalf("conflict body %+v", final)
	}
}

// TestServiceSweepJob runs the flagship job: the whole experiment suite,
// asynchronously, with per-experiment progress.
func TestServiceSweepJob(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2})
	var sub jobs.Status
	if code, _ := doJSON(t, ts, http.MethodPost, "/v1/jobs", `{"job":"sweep","workers":2}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	st := waitJob(t, ts, sub.ID, jobs.StateDone)
	want := int64(len(experiments.Index()))
	if st.Done != want || st.Total != want {
		t.Fatalf("progress %d/%d, want %d/%d", st.Done, st.Total, want, want)
	}
	res, _ := json.Marshal(st.Result)
	var sw service.SweepResult
	if err := json.Unmarshal(res, &sw); err != nil {
		t.Fatal(err)
	}
	if !sw.OK || int64(len(sw.Experiments)) != want {
		t.Fatalf("sweep result ok=%v with %d experiments", sw.OK, len(sw.Experiments))
	}
	for _, line := range sw.Experiments {
		if !line.OK {
			t.Errorf("experiment %s failed in the sweep job", line.ID)
		}
	}
}

// TestServiceJobErrors pins the job routes' error contract: 400 for
// bogus submissions (never admitted), 404 for unknown ids.
func TestServiceJobErrors(t *testing.T) {
	s, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2})
	for _, tc := range []struct{ name, body string }{
		{"missing-kind", `{"workers":2}`},
		{"bogus-kind", `{"job":"nope"}`},
		{"bogus-experiment", `{"job":"experiment","name":"nope"}`},
		{"bogus-game", `{"job":"game","game":"nope"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e map[string]string
			if code, _ := doJSON(t, ts, http.MethodPost, "/v1/jobs", tc.body, &e); code != http.StatusBadRequest {
				t.Fatalf("status %d, body %v", code, e)
			}
		})
	}
	if st := s.Jobs().Stats(); st.Totals.Submitted != 0 {
		t.Fatalf("bogus submissions were admitted: %+v", st.Totals)
	}
	if code, _ := doJSON(t, ts, http.MethodGet, "/v1/jobs/j99", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d", code)
	}
	if code, _ := doJSON(t, ts, http.MethodDelete, "/v1/jobs/j99", "", nil); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d", code)
	}
}

// blockingJob occupies a job worker until release is closed.
func blockingJob(started chan<- struct{}, release <-chan struct{}) jobs.Func {
	return func(ctx context.Context, _ *jobs.Progress) (any, error) {
		if started != nil {
			close(started)
		}
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestServiceJobQueueOverflow429: with the single worker occupied and
// the queue full, POST /v1/jobs must answer 429 with a Retry-After
// hint, and the throttled counter must move.
func TestServiceJobQueueOverflow429(t *testing.T) {
	s, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2, JobWorkers: 1, JobQueue: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Jobs().Submit("block", blockingJob(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Jobs().Submit("fill", blockingJob(nil, release)); err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	code, hdr := doJSON(t, ts, http.MethodPost, "/v1/jobs", `{"job":"experiment","name":"figure5"}`, &e)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %v)", code, e)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	st := getStats(t, ts)
	if st.Requests.Throttled != 1 || st.Jobs.Totals.Rejected != 1 {
		t.Fatalf("throttle bookkeeping: requests %+v, jobs %+v", st.Requests, st.Jobs.Totals)
	}
}

// TestServiceJobCancelWhileRunning cancels an in-flight job over HTTP
// and watches it reach the cancelled state.
func TestServiceJobCancelWhileRunning(t *testing.T) {
	s, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2, JobWorkers: 1})
	started := make(chan struct{})
	if _, err := s.Jobs().Submit("block", blockingJob(started, nil)); err != nil {
		t.Fatal(err)
	}
	<-started
	var st jobs.Status
	if code, _ := doJSON(t, ts, http.MethodDelete, "/v1/jobs/j1", "", &st); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	if st.State != jobs.StateRunning || !st.CancelRequested {
		t.Fatalf("cancel response %+v", st)
	}
	final := waitJob(t, ts, "j1", jobs.StateCancelled)
	if final.Error == "" {
		t.Fatalf("cancelled without error: %+v", final)
	}
}

// TestServiceJobCancelWhileQueued cancels a job still in the admission
// queue: it must flip to cancelled immediately and never run.
func TestServiceJobCancelWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2, JobWorkers: 1, JobQueue: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Jobs().Submit("block", blockingJob(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	var sub jobs.Status
	if code, _ := doJSON(t, ts, http.MethodPost, "/v1/jobs", `{"job":"experiment","name":"figure5"}`, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	var st jobs.Status
	if code, _ := doJSON(t, ts, http.MethodDelete, "/v1/jobs/"+sub.ID, "", &st); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	if st.State != jobs.StateCancelled {
		t.Fatalf("queued cancel left %+v", st)
	}
}

// metricValue extracts the value of a plain (unlabeled) sample from the
// Prometheus text body.
func metricValue(t *testing.T, body, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v in %q", name, err, line)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestStatsMetricsAgree drives known traffic over a journal-enabled
// server and asserts /metrics and /v1/stats report the same counters —
// both render one Snapshot, so a field present in one must equal the
// other. The journal gauges are part of the contract.
func TestStatsMetricsAgree(t *testing.T) {
	jnl, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	_, ts := newTestServer(t, service.Config{Workers: 3, CacheSize: 4, Journal: jnl})
	post(t, ts, "/v1/decide", `{"graph":`+triangleJSON+`,"property":"all-selected"}`) // miss
	post(t, ts, "/v1/decide", `{"graph":`+triangleJSON+`,"property":"all-equal"}`)    // hit
	post(t, ts, "/v1/decide", `{"graph":`+triangleJSON+`,"property":"nope"}`)         // failure
	var sub jobs.Status
	doJSON(t, ts, http.MethodPost, "/v1/jobs", `{"job":"experiment","name":"figure5"}`, &sub)
	waitJob(t, ts, sub.ID, jobs.StateDone)

	st := getStats(t, ts)
	if st.Jobs.Journal == nil || st.Jobs.Journal.Appends == 0 {
		t.Fatalf("journal-enabled server reports no journal stats: %+v", st.Jobs.Journal)
	}
	_, body := get(t, ts, "/metrics")
	for name, want := range map[string]uint64{
		"lphd_requests_total":                      st.Requests.Total,
		"lphd_request_failures_total":              st.Requests.Failures,
		"lphd_request_throttled_total":             st.Requests.Throttled,
		"lphd_cache_hits_total":                    st.Cache.Hits,
		"lphd_cache_misses_total":                  st.Cache.Misses,
		"lphd_cache_evictions_total":               st.Cache.Evictions,
		"lphd_cache_size":                          uint64(st.Cache.Size),
		"lphd_jobs_submitted_total":                st.Jobs.Totals.Submitted,
		"lphd_jobs_done_total":                     st.Jobs.Totals.Done,
		"lphd_jobs_rejected_total":                 st.Jobs.Totals.Rejected,
		"lphd_workers_budget":                      3,
		"lphd_journal_segments":                    uint64(st.Jobs.Journal.Segments),
		"lphd_journal_live_bytes":                  uint64(st.Jobs.Journal.LiveBytes),
		"lphd_journal_dead_bytes":                  uint64(st.Jobs.Journal.DeadBytes),
		"lphd_journal_appends_total":               st.Jobs.Journal.Appends,
		"lphd_journal_append_errors_total":         st.Jobs.Journal.AppendErrors,
		"lphd_journal_compactions_total":           st.Jobs.Journal.Compactions,
		"lphd_journal_replayed_total":              st.Jobs.Journal.Replay.Replayed,
		"lphd_journal_restarted_total":             st.Jobs.Journal.Replay.Restarted,
		"lphd_journal_expired_on_replay_total":     st.Jobs.Journal.Replay.Expired,
		fmt.Sprintf("lphd_jobs{state=%q}", "done"): uint64(st.Jobs.States[jobs.StateDone]),
	} {
		if got := metricValue(t, body, name); got != want {
			t.Errorf("%s = %d, stats say %d", name, got, want)
		}
	}
	// The histogram is present and internally consistent: the +Inf
	// bucket equals the sample count.
	inf := metricValue(t, body, `lphd_request_duration_seconds_bucket{le="+Inf"}`)
	cnt := metricValue(t, body, "lphd_request_duration_seconds_count")
	if inf != cnt || cnt == 0 {
		t.Fatalf("histogram inconsistent: +Inf %d, count %d", inf, cnt)
	}
	// The span-derived phase histograms agree with the stats snapshot
	// field-for-field; shed/cache/engine/journal phases are all present
	// (pre-registered at zero, counted by the traffic above).
	if len(st.Phases) == 0 {
		t.Fatal("stats report no phase histograms")
	}
	seen := make(map[string]bool)
	for _, p := range st.Phases {
		seen[p.Phase] = true
		got := metricValue(t, body, fmt.Sprintf("lphd_phase_duration_seconds_count{phase=%q}", p.Phase))
		if got != p.Count {
			t.Errorf("phase %s count: metrics %d, stats %d", p.Phase, got, p.Count)
		}
	}
	for _, phase := range []string{"shed_wait", "cache", "engine", "journal_append", "journal_fsync", "queue_wait", "job_run"} {
		if !seen[phase] {
			t.Errorf("phase %s missing from stats: %v", phase, seen)
		}
	}
	for _, phase := range []string{"cache", "engine", "journal_append", "queue_wait", "job_run"} {
		if n := metricValue(t, body, fmt.Sprintf("lphd_phase_duration_seconds_count{phase=%q}", phase)); n == 0 {
			t.Errorf("phase %s counted no observations after the traffic above", phase)
		}
	}
	// Build identity: present in both views with the same values.
	if !strings.Contains(body, fmt.Sprintf("lphd_build_info{go_version=%q,module=%q} 1", st.Build.GoVersion, st.Build.Module)) {
		t.Errorf("build info line missing or disagreeing with stats %+v", st.Build)
	}
	if got := metricValue(t, body, "lphd_process_start_time_seconds"); got != uint64(st.Build.StartUnixSeconds) {
		t.Errorf("start time: metrics %d, stats %d", got, st.Build.StartUnixSeconds)
	}
	// Routes are labeled by mux pattern, including unmatched traffic.
	get(t, ts, "/v1/bogus")
	st = getStats(t, ts)
	if st.Latency.ByRoute["POST /v1/decide"] != 3 {
		t.Fatalf("route counters %+v", st.Latency.ByRoute)
	}
	if st.Latency.ByRoute["unmatched"] == 0 {
		t.Fatalf("unmatched traffic not labeled: %+v", st.Latency.ByRoute)
	}
}
