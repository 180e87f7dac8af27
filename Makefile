# Single verify entry point: `make check` runs formatting, vet, the
# custom lint suite (cmd/lphlint), build, the full race-enabled test
# suite, every example program, the offline vet and test of the lphbench
# module, and short fuzz smokes of the graph JSON decoder and the service
# request decoder (see DESIGN.md).
# `make help` lists the targets.

GO ?= go

# BENCHTIME is the per-benchmark budget of the recorded bench-json run.
# It must be a duration, not an iteration count: the PR 5–7 BENCH files
# were recorded with -benchtime 1x, whose single iteration made every
# ns/op a one-sample coin flip and the recorded speedup ratios noise.
# 200ms gives the fast benchmarks thousands of iterations and even the
# slowest several, so the cross-PR deltas bench-delta gates on are
# statistically meaningful.
BENCHTIME ?= 200ms

.PHONY: check fmt vet vet-journal lint build test test-lifecycle examples bench-build fuzz bench bench-json bench-delta serve-smoke router-smoke help

check: fmt vet vet-journal lint build test test-lifecycle examples bench-build fuzz

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# vet-journal is the explicit vet gate on the durability surface: the
# journal, its harness, and the engine that replays it must stay
# vet-clean even if the repo-wide vet list ever narrows.
vet-journal:
	$(GO) vet ./internal/journal ./internal/journaltest ./internal/jobs

# lint runs the repository's own go/analysis suite (internal/lint via
# cmd/lphlint): cancellation polling in the engines, clock injection,
# stats/metrics parity, fsync-before-rename in the journal, and
# goroutine supervision. See DESIGN.md "Static analysis".
lint:
	$(GO) run ./cmd/lphlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# test-lifecycle re-runs the zero-downtime suite — graceful drain,
# load-shedding, idempotent submits, and the SIGTERM fault-injection
# harness — twice under the race detector. -count=2 defeats test
# caching and catches order- and state-dependent flakes in exactly the
# code whose whole point is concurrent shutdown.
test-lifecycle:
	$(GO) test -race -count=2 -run 'Drain|Idempoten|Shed|Saturat|RetryStorm' \
		./internal/jobs ./internal/service ./cmd/lphd

# examples runs every examples/* program and fails on a nonzero exit:
# they drive the library through its public entry points, which no
# test calls the way they do.
examples:
	@set -e; for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; \
		echo "go run ./$$d"; \
		$(GO) run "./$$d" >/dev/null; \
	done

# bench-build vets and tests the lphbench module (a separate module
# that replaces this one from the parent directory) in the offline
# environment lphbench/run.sh builds it in, every cache under
# .bench_build/. It catches a change here that breaks the benchmark.
BENCH_ENV = GOCACHE=$(CURDIR)/.bench_build/gocache GOMODCACHE=$(CURDIR)/.bench_build/gomodcache \
	GOPATH=$(CURDIR)/.bench_build/gopath GOTMPDIR=$(CURDIR)/.bench_build/tmp \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off

bench-build:
	@mkdir -p .bench_build/tmp
	cd lphbench && $(BENCH_ENV) $(GO) vet ./... && $(BENCH_ENV) $(GO) test ./...

# fuzz smoke-runs the fuzzers for 5s each: FuzzReadGraph over
# the malformed-graph corpus (trailing data, truncated arrays),
# FuzzDecodeRequest over service request bodies wrapping that corpus,
# FuzzIdempotencyKey over the strict Idempotency-Key validator,
# FuzzReplayJournal over truncated/bit-flipped/garbage-extended
# journal segments, and FuzzTraceparent over inbound W3C traceparent
# headers (an invalid header must start a fresh trace, never error).
# FuzzMemoKey derives the whole-game memo key of pairs of (graph, game
# kind) inputs, where equal seeds must mean equal graphs and the same
# kind, so one game's cached verdict never answers another's.
# FuzzTupleCodec round-trips the Product/Relativize tuple messages and
# feeds the decoder malformed ones, which must decode to empty parts.
# FuzzIncrementalRun drives run sequences through one simulate.Scratch,
# where every incremental RunAccepted must equal Run + Accepted, and
# Run must keep that verdict when the certificates of every node from
# the run's Keep() on are redrawn.
# FuzzPrunedWalk picks a search space, a keep seed and engine options:
# the pruned walk, head walk and pool together, must visit exactly the
# assignments a brute-force model of the keeps leaves uncovered, and
# Exists and ForAll must give the sequential engine's values.
# FuzzRouteKey runs the router's one-pass key scan beside the full
# encoding/json + graphio decode it replaced: on any body each route's
# key is the decode's key or the raw-body key, never another graph's.
# Invariant for all: no panics; the journal replay additionally
# recovers every record before the first corruption.
# Minimization is bounded to 1s per new input: at Go's default of 60s,
# a smoke that finds a new input in its first seconds spends the rest
# minimizing it and checks no further input.
FUZZ = $(GO) test -run=- -fuzztime=5s -fuzzminimizetime=1s
fuzz:
	$(FUZZ) -fuzz=FuzzReadGraph ./internal/graphio
	$(FUZZ) -fuzz=FuzzDecodeRequest ./internal/service
	$(FUZZ) -fuzz=FuzzIdempotencyKey ./internal/service
	$(FUZZ) -fuzz=FuzzReplayJournal ./internal/journal
	$(FUZZ) -fuzz=FuzzMemoKey ./internal/core
	$(FUZZ) -fuzz=FuzzTupleCodec ./internal/core
	$(FUZZ) -fuzz=FuzzIncrementalRun ./internal/simulate
	$(FUZZ) -fuzz=FuzzPrunedWalk ./internal/search
	$(FUZZ) -fuzz=FuzzTraceparent ./internal/obs
	$(FUZZ) -fuzz=FuzzRouteKey ./internal/router

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-json records the perf trajectory machine-readably: every
# benchmark for $(BENCHTIME), through `go test -json`, post-processed by
# cmd/benchjson into a sorted JSON array (see DESIGN.md). Everything is
# recorded -count 3 so bench-delta has samples to aggregate (minima for
# the cross-file engine gate, medians for the in-file overhead gate);
# the traced verify pair runs four extra times before the full suite so
# its median rests on seven interleaved samples.
bench-json:
	( $(GO) test -run '^$$' -bench BenchmarkTracedVerify -benchtime $(BENCHTIME) -count 4 -json ./internal/service ; \
	  $(GO) test -run '^$$' -bench BenchmarkRouterHop -benchtime $(BENCHTIME) -count 4 -json ./internal/router ; \
	  $(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -count 3 -json ./... ) \
	  | $(GO) run ./cmd/benchjson > BENCH_pr10.json
	@echo "wrote BENCH_pr10.json"

# bench-delta gates the recorded run against the previous PR's file:
# any engine-pair benchmark (/sequential or /parallel) present in both
# files may not regress by more than the tolerance; within the new
# file the traced verify arm may not exceed the untraced one by more
# than the overhead budget, and the routed decide arm may not exceed
# the direct one by more than the router-hop budget (the hop buys
# affinity and failover; it must never cost more than the game). Not
# part of `make check` — benchmark wall-clock on shared CI hardware is
# advisory — but run before recording a new BENCH file.
bench-delta:
	$(GO) run ./cmd/benchdelta -old BENCH_pr9.json -new BENCH_pr10.json -tolerance 0.10 -overhead 0.10 -hop 2.0

# serve-smoke boots lphd on a random port and walks the documented API
# end to end: decide, verify, healthz (exact bodies), a two-graph
# /v1/batch, an async /v1/jobs experiment polled to completion, a
# /metrics scrape, and the trace walk — a verify carrying a fixed
# traceparent must echo its trace id in the X-Lph-Trace header, in
# /v1/debug/traces, and in the JSON request log line on stderr — then
# the full crash-recovery walk: a journaled
# lphd takes SIGKILL mid-sweep and is restarted on the same journal
# dir, which must serve the finished result byte-identically and
# re-run the interrupted and queued jobs to done. It closes with the
# zero-downtime drain walk: SIGTERM mid-sweep must answer 503 to new
# writes while draining, let the sweep finish, exit 0 with a drained
# summary, and the next restart must replay everything as finished
# (restarted=0 — a graceful drain re-runs nothing); finally
# POST /v1/admin/drain must drain an idle instance the same way.
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid $$jpid 2>/dev/null || true; rm -rf $$tmp' EXIT INT TERM; \
	$(GO) build -o $$tmp/lphd ./cmd/lphd; \
	$$tmp/lphd -addr 127.0.0.1:0 -workers 2 -cache 8 >$$tmp/out 2>&1 & pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^lphd: listening on http://##p' $$tmp/out); \
		[ -n "$$addr" ] && break; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "lphd never came up:"; cat $$tmp/out; exit 1; }; \
	echo "lphd on $$addr"; \
	body=$$(curl -sf http://$$addr/v1/healthz); \
	[ "$$body" = '{"ok":true}' ] || { echo "healthz body: $$body"; exit 1; }; \
	printf '{"graph":%s,"property":"all-selected"}' "$$(cat examples/graphs/triangle-selected.json)" >$$tmp/decide.json; \
	body=$$(curl -sf -X POST --data-binary @$$tmp/decide.json http://$$addr/v1/decide); \
	want='{"op":"decide","name":"all-selected","holds":true,"cached":false,"workers":2}'; \
	[ "$$body" = "$$want" ] || { echo "decide body: $$body"; echo "want:        $$want"; exit 1; }; \
	printf '{"graph":%s,"property":"3-colorable"}' "$$(cat examples/graphs/c5.json)" >$$tmp/verify.json; \
	body=$$(curl -sf -X POST --data-binary @$$tmp/verify.json http://$$addr/v1/verify); \
	want='{"op":"verify","name":"3-colorable","holds":true,"cached":false,"workers":2}'; \
	[ "$$body" = "$$want" ] || { echo "verify body: $$body"; echo "want:        $$want"; exit 1; }; \
	printf '{"op":"decide","property":"all-selected","graphs":[%s,%s]}' \
		"$$(cat examples/graphs/triangle-selected.json)" "$$(cat examples/graphs/triangle-mixed.json)" >$$tmp/batch.json; \
	body=$$(curl -sf -X POST --data-binary @$$tmp/batch.json http://$$addr/v1/batch); \
	want='{"op":"batch","verb":"decide","name":"all-selected","workers":2,"failed":0,"results":[{"index":0,"holds":true,"cached":true},{"index":1,"holds":false,"cached":false}]}'; \
	[ "$$body" = "$$want" ] || { echo "batch body: $$body"; echo "want:       $$want"; exit 1; }; \
	body=$$(curl -sf -X POST -d '{"job":"experiment","name":"figure5"}' http://$$addr/v1/jobs); \
	case "$$body" in '{"id":"j1","kind":"experiment","state":"queued"'*) ;; \
		*) echo "jobs submit body: $$body"; exit 1;; esac; \
	state=""; \
	for i in $$(seq 1 100); do \
		state=$$(curl -sf http://$$addr/v1/jobs/j1); \
		case "$$state" in *'"state":"done"'*) break;; esac; \
		sleep 0.1; \
	done; \
	case "$$state" in \
		*'"state":"done"'*'"ok":true'*) ;; \
		*) echo "job never finished ok: $$state"; exit 1;; \
	esac; \
	metrics=$$(curl -sf http://$$addr/metrics); \
	for m in lphd_requests_total lphd_cache_hits_total 'lphd_jobs_done_total 1' 'lphd_jobs{state="done"} 1' lphd_request_duration_seconds_bucket 'lphd_phase_duration_seconds_bucket{phase="engine"' lphd_build_info lphd_process_start_time_seconds; do \
		case "$$metrics" in *"$$m"*) ;; \
			*) echo "metrics scrape misses $$m"; exit 1;; esac; \
	done; \
	tid=4bf92f3577b34da6a3ce929d0e0e4736; \
	hdr=$$(curl -sf -D - -o /dev/null -X POST -H "traceparent: 00-$$tid-00f067aa0ba902b7-01" \
		--data-binary @$$tmp/verify.json http://$$addr/v1/verify | tr -d '\r' | sed -n 's/^X-Lph-Trace: //p'); \
	[ "$$hdr" = "$$tid" ] || { echo "X-Lph-Trace: $$hdr, want $$tid"; exit 1; }; \
	traces=$$(curl -sf "http://$$addr/v1/debug/traces?route=POST%20/v1/verify&limit=5"); \
	case "$$traces" in *"$$tid"*) ;; *) echo "debug traces miss $$tid: $$traces"; exit 1;; esac; \
	grep -q "\"trace\":\"$$tid\"" $$tmp/out || { echo "request log line missing trace id:"; cat $$tmp/out; exit 1; }; \
	kill $$pid 2>/dev/null; \
	echo "API walk OK (trace id propagated); starting crash-recovery walk"; \
	$$tmp/lphd -addr 127.0.0.1:0 -workers 2 -job-workers 1 -journal $$tmp/journal >$$tmp/crash1 2>&1 & jpid=$$!; \
	jaddr=""; \
	for i in $$(seq 1 100); do \
		jaddr=$$(sed -n 's#^lphd: listening on http://##p' $$tmp/crash1); \
		[ -n "$$jaddr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$jaddr" ] || { echo "journaled lphd never came up:"; cat $$tmp/crash1; exit 1; }; \
	curl -sf -X POST -d '{"job":"experiment","name":"figure5"}' http://$$jaddr/v1/jobs >/dev/null; \
	before=""; \
	for i in $$(seq 1 300); do \
		before=$$(curl -sf http://$$jaddr/v1/jobs/j1); \
		case "$$before" in *'"state":"done"'*) break;; esac; sleep 0.1; \
	done; \
	case "$$before" in *'"state":"done"'*) ;; *) echo "j1 never finished: $$before"; exit 1;; esac; \
	curl -sf -X POST -d '{"job":"sweep"}' http://$$jaddr/v1/jobs >/dev/null; \
	for i in $$(seq 1 300); do \
		state=$$(curl -sf http://$$jaddr/v1/jobs/j2); \
		case "$$state" in *'"state":"running"'*) break;; esac; sleep 0.05; \
	done; \
	case "$$state" in *'"state":"running"'*) ;; *) echo "j2 never started: $$state"; exit 1;; esac; \
	curl -sf -X POST -d '{"job":"experiment","name":"figure4"}' http://$$jaddr/v1/jobs >/dev/null; \
	kill -9 $$jpid; wait $$jpid 2>/dev/null || true; \
	$$tmp/lphd -addr 127.0.0.1:0 -workers 2 -job-workers 1 -journal $$tmp/journal -drain-timeout 2m >$$tmp/crash2 2>&1 & jpid=$$!; \
	jaddr=""; \
	for i in $$(seq 1 100); do \
		jaddr=$$(sed -n 's#^lphd: listening on http://##p' $$tmp/crash2); \
		[ -n "$$jaddr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$jaddr" ] || { echo "restarted lphd never came up:"; cat $$tmp/crash2; exit 1; }; \
	after=$$(curl -sf http://$$jaddr/v1/jobs/j1); \
	[ "$$after" = "$$before" ] || { echo "j1 not byte-identical after crash:"; echo "before: $$before"; echo "after:  $$after"; exit 1; }; \
	for id in j2 j3; do \
		state=""; \
		for i in $$(seq 1 600); do \
			state=$$(curl -sf http://$$jaddr/v1/jobs/$$id); \
			case "$$state" in *'"state":"done"'*) break;; esac; sleep 0.1; \
		done; \
		case "$$state" in *'"state":"done"'*) ;; \
			*) echo "$$id never re-ran to done after the crash: $$state"; cat $$tmp/crash2; exit 1;; esac; \
	done; \
	jm=$$(curl -sf http://$$jaddr/metrics); \
	for m in 'lphd_journal_replayed_total 1' 'lphd_journal_restarted_total 2' lphd_journal_segments lphd_journal_live_bytes; do \
		case "$$jm" in *"$$m"*) ;; \
			*) echo "journal metrics miss $$m"; exit 1;; esac; \
	done; \
	listing=$$(curl -sf "http://$$jaddr/v1/jobs?limit=2"); \
	case "$$listing" in *'"id":"j1"'*'"id":"j2"'*'"next_cursor"'*) ;; \
		*) echo "paginated listing wrong: $$listing"; exit 1;; esac; \
	cursor=$$(printf '%s' "$$listing" | sed -n 's#.*"next_cursor":"\([^"]*\)".*#\1#p'); \
	page2=$$(curl -sf "http://$$jaddr/v1/jobs?limit=2&cursor=$$cursor"); \
	case "$$page2" in *'"id":"j3"'*) ;; \
		*) echo "cursor page wrong: $$page2"; exit 1;; esac; \
	echo "crash-recovery walk OK; starting drain walk"; \
	curl -sf -X POST -d '{"job":"sweep"}' http://$$jaddr/v1/jobs >/dev/null; \
	for i in $$(seq 1 300); do \
		state=$$(curl -sf http://$$jaddr/v1/jobs/j4); \
		case "$$state" in *'"state":"running"'*) break;; esac; sleep 0.05; \
	done; \
	case "$$state" in *'"state":"running"'*) ;; *) echo "j4 never started: $$state"; exit 1;; esac; \
	kill -TERM $$jpid; \
	hz=""; \
	for i in $$(seq 1 100); do \
		hz=$$(curl -s http://$$jaddr/v1/healthz); \
		case "$$hz" in *'"draining":true'*) break;; esac; sleep 0.05; \
	done; \
	case "$$hz" in *'"draining":true'*) ;; *) echo "healthz never reported draining: $$hz"; exit 1;; esac; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"job":"experiment","name":"figure4"}' http://$$jaddr/v1/jobs); \
	[ "$$code" = "503" ] || { echo "submit while draining answered $$code, want 503"; exit 1; }; \
	rc=0; wait $$jpid || rc=$$?; \
	[ "$$rc" = "0" ] || { echo "drained lphd exited $$rc, want 0:"; cat $$tmp/crash2; exit 1; }; \
	grep -q '^lphd: drained finished=1 ' $$tmp/crash2 || { echo "no drained summary:"; cat $$tmp/crash2; exit 1; }; \
	$$tmp/lphd -addr 127.0.0.1:0 -workers 2 -job-workers 1 -journal $$tmp/journal >$$tmp/drain2 2>&1 & jpid=$$!; \
	jaddr=""; \
	for i in $$(seq 1 100); do \
		jaddr=$$(sed -n 's#^lphd: listening on http://##p' $$tmp/drain2); \
		[ -n "$$jaddr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$jaddr" ] || { echo "post-drain lphd never came up:"; cat $$tmp/drain2; exit 1; }; \
	grep -q 'restarted=0' $$tmp/drain2 || { echo "graceful drain must re-run nothing:"; cat $$tmp/drain2; exit 1; }; \
	body=$$(curl -sf -X POST http://$$jaddr/v1/admin/drain); \
	[ "$$body" = '{"draining":true}' ] || { echo "admin drain body: $$body"; exit 1; }; \
	rc=0; wait $$jpid || rc=$$?; \
	[ "$$rc" = "0" ] || { echo "admin-drained lphd exited $$rc, want 0:"; cat $$tmp/drain2; exit 1; }; \
	grep -q '^lphd: drained finished=0 interrupted=0 queued=0' $$tmp/drain2 || { echo "idle admin drain summary wrong:"; cat $$tmp/drain2; exit 1; }; \
	echo "serve-smoke OK (incl. crash recovery + graceful drain)"
	@$(MAKE) --no-print-directory router-smoke

# router-smoke is the cluster walk behind the front door: three
# journaled lphd instances behind one lphrouter. It proxies a decide
# (exact body) and a traceparent echo through the router, submits a
# sweep job through the router, finds which node owns it by direct
# query, SIGKILLs that owner mid-sweep, and then issues ten client
# decides through the router — every one must succeed while the
# reconciler is still discovering the corpse (transport-failure hops
# walk to the next ring candidate). The owner restarts on the same
# address and journal and must log restarted=1 (the interrupted sweep
# re-runs); the pool must return to 3 active; the job must reach done
# through the router; and both survivors must still report
# lphd_journal_restarted_total 0 — the chaos never re-ran their work.
router-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$(cat $$tmp/pid* 2>/dev/null) $$rpid 2>/dev/null || true; rm -rf $$tmp' EXIT INT TERM; \
	$(GO) build -o $$tmp/lphd ./cmd/lphd; \
	$(GO) build -o $$tmp/lphrouter ./cmd/lphrouter; \
	nodes=""; \
	for n in 1 2 3; do \
		$$tmp/lphd -addr 127.0.0.1:0 -workers 2 -job-workers 1 -journal $$tmp/j$$n >$$tmp/n$$n 2>&1 & \
		echo $$! > $$tmp/pid$$n; \
		a=""; \
		for i in $$(seq 1 100); do \
			a=$$(sed -n 's#^lphd: listening on http://##p' $$tmp/n$$n); \
			[ -n "$$a" ] && break; sleep 0.1; \
		done; \
		[ -n "$$a" ] || { echo "node $$n never came up:"; cat $$tmp/n$$n; exit 1; }; \
		echo "$$a" > $$tmp/addr$$n; \
		nodes="$$nodes,$$a"; \
	done; \
	nodes=$${nodes#,}; \
	$$tmp/lphrouter -addr 127.0.0.1:0 -nodes "$$nodes" -probe-interval 50ms -probe-timeout 1s -miss-budget 2 >$$tmp/router 2>&1 & rpid=$$!; \
	raddr=""; \
	for i in $$(seq 1 100); do \
		raddr=$$(sed -n 's#^lphrouter: listening on http://##p' $$tmp/router); \
		[ -n "$$raddr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$raddr" ] || { echo "lphrouter never came up:"; cat $$tmp/router; exit 1; }; \
	echo "router on $$raddr over $$nodes"; \
	hz=""; \
	for i in $$(seq 1 100); do \
		hz=$$(curl -s http://$$raddr/v1/router/healthz); \
		case "$$hz" in *'"active":3'*) break;; esac; sleep 0.1; \
	done; \
	case "$$hz" in *'"active":3'*) ;; *) echo "pool never reached 3 active: $$hz"; exit 1;; esac; \
	printf '{"graph":%s,"property":"all-selected"}' "$$(cat examples/graphs/triangle-selected.json)" >$$tmp/decide.json; \
	body=$$(curl -sf -X POST --data-binary @$$tmp/decide.json http://$$raddr/v1/decide); \
	want='{"op":"decide","name":"all-selected","holds":true,"cached":false,"workers":2}'; \
	[ "$$body" = "$$want" ] || { echo "proxied decide body: $$body"; echo "want:               $$want"; exit 1; }; \
	tid=4bf92f3577b34da6a3ce929d0e0e4736; \
	hdr=$$(curl -sf -D - -o /dev/null -X POST -H "traceparent: 00-$$tid-00f067aa0ba902b7-01" \
		--data-binary @$$tmp/decide.json http://$$raddr/v1/decide | tr -d '\r' | sed -n 's/^X-Lph-Trace: //p'); \
	[ "$$hdr" = "$$tid" ] || { echo "router X-Lph-Trace: $$hdr, want $$tid"; exit 1; }; \
	body=$$(curl -sf -X POST -d '{"job":"sweep"}' http://$$raddr/v1/jobs); \
	jid=$$(printf '%s' "$$body" | sed -n 's#.*"id":"\([^"]*\)".*#\1#p'); \
	[ -n "$$jid" ] || { echo "job submit through router: $$body"; exit 1; }; \
	state=""; \
	for i in $$(seq 1 300); do \
		state=$$(curl -sf http://$$raddr/v1/jobs/$$jid); \
		case "$$state" in *'"state":"running"'*) break;; esac; sleep 0.05; \
	done; \
	case "$$state" in *'"state":"running"'*) ;; *) echo "$$jid never started: $$state"; exit 1;; esac; \
	owner=""; \
	for n in 1 2 3; do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' http://$$(cat $$tmp/addr$$n)/v1/jobs/$$jid); \
		[ "$$code" = "200" ] && owner=$$n; \
	done; \
	[ -n "$$owner" ] || { echo "no node owns $$jid"; exit 1; }; \
	oaddr=$$(cat $$tmp/addr$$owner); \
	echo "killing owner node $$owner ($$oaddr) mid-sweep"; \
	opid=$$(cat $$tmp/pid$$owner); \
	kill -9 $$opid; wait $$opid 2>/dev/null || true; \
	for i in $$(seq 1 10); do \
		curl -sf -X POST --data-binary @$$tmp/decide.json http://$$raddr/v1/decide >/dev/null \
			|| { echo "client decide $$i failed during failover"; cat $$tmp/router; exit 1; }; \
	done; \
	pool=""; \
	for i in $$(seq 1 100); do \
		pool=$$(curl -s http://$$raddr/v1/router/pool); \
		case "$$pool" in *'"state":"down"'*) break;; esac; sleep 0.1; \
	done; \
	case "$$pool" in *'"state":"down"'*) ;; *) echo "dead node never evicted: $$pool"; exit 1;; esac; \
	$$tmp/lphd -addr $$oaddr -workers 2 -job-workers 1 -journal $$tmp/j$$owner >$$tmp/restart 2>&1 & \
	echo $$! > $$tmp/pid$$owner; \
	a=""; \
	for i in $$(seq 1 100); do \
		a=$$(sed -n 's#^lphd: listening on http://##p' $$tmp/restart); \
		[ -n "$$a" ] && break; sleep 0.1; \
	done; \
	[ -n "$$a" ] || { echo "owner never came back:"; cat $$tmp/restart; exit 1; }; \
	grep -q 'restarted=1' $$tmp/restart || { echo "owner restart must re-admit the interrupted sweep:"; cat $$tmp/restart; exit 1; }; \
	hz=""; \
	for i in $$(seq 1 100); do \
		hz=$$(curl -s http://$$raddr/v1/router/healthz); \
		case "$$hz" in *'"active":3'*) break;; esac; sleep 0.1; \
	done; \
	case "$$hz" in *'"active":3'*) ;; *) echo "pool never recovered to 3 active: $$hz"; exit 1;; esac; \
	state=""; \
	for i in $$(seq 1 600); do \
		state=$$(curl -sf http://$$raddr/v1/jobs/$$jid); \
		case "$$state" in *'"state":"done"'*) break;; esac; sleep 0.1; \
	done; \
	case "$$state" in *'"state":"done"'*) ;; \
		*) echo "$$jid never re-ran to done through the router: $$state"; cat $$tmp/restart; exit 1;; esac; \
	for n in 1 2 3; do \
		[ "$$n" = "$$owner" ] && continue; \
		m=$$(curl -sf http://$$(cat $$tmp/addr$$n)/metrics); \
		case "$$m" in *'lphd_journal_restarted_total 0'*) ;; \
			*) echo "survivor $$n re-ran work it never lost"; exit 1;; esac; \
	done; \
	echo "router-smoke OK (failover with zero failed client requests; survivors restarted=0)"

help:
	@echo "make check       - fmt + vet + lint + build + race tests + examples + bench-build + decoder fuzz smokes (the verify entry point)"
	@echo "make fmt         - fail if gofmt would change any file"
	@echo "make vet         - go vet ./..."
	@echo "make vet-journal - explicit vet gate on journal/journaltest/jobs"
	@echo "make lint        - run the custom go/analysis suite (cmd/lphlint) over the repo"
	@echo "make build       - go build ./..."
	@echo "make test        - go test -race ./..."
	@echo "make test-lifecycle - drain/shed/idempotency suite twice under -race (defeats caching, shakes out flakes)"
	@echo "make examples    - go run every examples/* program; fail on a nonzero exit"
	@echo "make bench-build - go vet + go test the lphbench module offline, caches in .bench_build/ (as lphbench/run.sh builds it)"
	@echo "make fuzz        - 5s fuzz smokes: FuzzReadGraph + FuzzDecodeRequest + FuzzIdempotencyKey + FuzzReplayJournal + FuzzMemoKey + FuzzTupleCodec + FuzzIncrementalRun + FuzzPrunedWalk + FuzzTraceparent"
	@echo "make bench       - smoke-run every benchmark once"
	@echo "make bench-json  - record every benchmark for BENCHTIME (default 200ms) in BENCH_pr10.json"
	@echo "make bench-delta - fail if BENCH_pr10.json regresses an engine pair >10% vs BENCH_pr9.json, tracing overhead >10%, or router hop >3x direct"
	@echo "make serve-smoke - boot lphd, walk the API (incl. trace propagation), SIGKILL + recovery, SIGTERM drain + admin drain, then router-smoke"
	@echo "make router-smoke - 3-node pool behind lphrouter: SIGKILL the job owner mid-sweep, zero failed client requests, replay on rejoin"
