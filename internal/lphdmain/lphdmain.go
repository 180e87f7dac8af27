// Package lphdmain is the real main loop of cmd/lphd, extracted so
// test harnesses can run a genuine lphd node without a separate
// `go build` step: cmd/lphd is a thin wrapper over Run, and
// internal/routertest re-execs the test binary through Run to boot
// whole pools of race-instrumented nodes on random ports. Everything
// documented on cmd/lphd — flags, routes, the drain lifecycle, the
// journal replay — is implemented here.
package lphdmain

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	// Registers the profiling handlers on http.DefaultServeMux, which is
	// only ever served on the separate -debug-addr listener — the main
	// listener runs the service's own mux and never exposes them.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
)

// Run parses lphd's flags, boots the service, and serves until a
// listener error or a drain (SIGTERM/SIGINT/POST /v1/admin/drain)
// winds it down. The return value is the process exit code.
func Run(args []string) int {
	fs := flag.NewFlagSet("lphd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8080", "listen address (\":0\" picks a free port)")
	workers := fs.Int("workers", 0, "server-wide worker budget per request (0 = all CPUs)")
	cache := fs.Int("cache", 128, "Prepared-cache capacity in graphs (0 disables)")
	memo := fs.Int("memo", 4096, "game-verdict memo table capacity in entries (0 disables)")
	timeout := fs.Duration("timeout", 0, "per-request evaluation deadline (0 = none)")
	jobWorkers := fs.Int("job-workers", 0, "async job engine worker pool (0 = 1)")
	queue := fs.Int("queue", 0, "job admission-queue depth, 429 beyond it (0 = 16)")
	ttl := fs.Duration("ttl", 0, "job result retention after completion (0 = 15m)")
	journalDir := fs.String("journal", "", "durable job journal directory (empty = in-memory jobs)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain wait for running jobs before cancelling them")
	shedWait := fs.Duration("shed-wait", 0, "bounded wait for sync worker budget before 429 (0 = 1s)")
	logLevel := fs.String("log-level", "info", "minimum slog level for the JSON request log (debug, info, warn, error)")
	slowRequest := fs.Duration("slow-request", 0, "log requests slower than this at WARN with full spans (0 = never)")
	traceRing := fs.Int("trace-ring", 0, "completed traces kept for /v1/debug/traces (0 = 128, negative disables tracing)")
	debugAddr := fs.String("debug-addr", "", "separate net/http/pprof listener address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var level slog.Level
	if fs.NArg() != 0 || *workers < 0 || *cache < 0 || *memo < 0 || *timeout < 0 ||
		*jobWorkers < 0 || *queue < 0 || *ttl < 0 || *drainTimeout < 0 || *shedWait < 0 ||
		*slowRequest < 0 || level.UnmarshalText([]byte(*logLevel)) != nil {
		fmt.Fprintln(os.Stderr,
			"usage: lphd [-addr :8080] [-workers N] [-cache N] [-memo N] [-timeout D] [-job-workers N] [-queue N] [-ttl D] [-journal DIR] [-drain-timeout D] [-shed-wait D] [-log-level L] [-slow-request D] [-trace-ring N] [-debug-addr ADDR]")
		return 2
	}
	var jnl *journal.Journal
	if *journalDir != "" {
		var err error
		if jnl, err = journal.Open(*journalDir, journal.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "lphd:", err)
			return 1
		}
		defer jnl.Close()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lphd:", err)
		return 1
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	svc := service.New(service.Config{
		Workers: *workers, CacheSize: *cache, MemoSize: *memo, Timeout: *timeout,
		JobWorkers: *jobWorkers, JobQueue: *queue, JobTTL: *ttl,
		Journal: jnl, ShedWait: *shedWait, DrainTimeout: *drainTimeout,
		TraceRing: *traceRing, Logger: logger, SlowRequest: *slowRequest,
	})
	defer svc.Close()
	if *debugAddr != "" {
		// The pprof listener is deliberately separate from -addr: it
		// serves http.DefaultServeMux (where net/http/pprof registered),
		// stays out of the shed gate and the drain path, and dies with
		// the process rather than shutting down gracefully.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lphd:", err)
			return 1
		}
		fmt.Printf("lphd: debug listening on http://%s\n", dln.Addr())
		dbg := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		defer dbg.Close()
		//lint:detached best-effort profiling listener; Close above unblocks Serve at exit and its error is irrelevant
		go func() { _ = dbg.Serve(dln) }()
	}
	if jnl != nil {
		// The crash-recovery harness scrapes this line; keep its shape.
		if js := svc.Jobs().Stats().Journal; js != nil {
			fmt.Printf("lphd: journal %s replayed=%d restarted=%d expired=%d\n",
				*journalDir, js.Replay.Replayed, js.Replay.Restarted, js.Replay.Expired)
		}
	}
	// The smoke test (make serve-smoke) and the pool harnesses
	// (internal/journaltest, internal/routertest) start us on ":0" and
	// scrape this line for the resolved port, so keep its shape stable.
	// It comes last: a harness that waits for it may read every startup
	// line above, the journal's replay counts included.
	fmt.Printf("lphd: listening on http://%s\n", ln.Addr())
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	//lint:detached the goroutine ends when Serve returns — on listener error or on the Shutdown below — and errc is always drained
	go func() { errc <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "lphd:", err)
			return 1
		}
		return 0
	case <-sigc:
	case <-svc.DrainRequested():
	}
	// Zero-downtime drain: stop admitting (the write routes answer 503 +
	// Retry-After), give running jobs up to -drain-timeout to finish —
	// their journaled verdicts survive the restart — then cancel the
	// stragglers (replay re-runs them, exactly as after a crash) while
	// queued jobs stay journaled as queued. In-flight HTTP responses
	// finish before the listener closes.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	res := svc.Drain(drainCtx)
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	_ = srv.Shutdown(shutCtx)
	<-errc
	// The drain harness (cmd/lphd tests, make serve-smoke) scrapes this
	// line; keep its shape stable.
	fmt.Printf("lphd: drained finished=%d interrupted=%d queued=%d\n",
		res.Finished, res.Interrupted, res.Queued)
	return 0
}
