// Command lphbench is the repository's benchmark. It runs one named
// workload against the code in the enclosing repository, checks every
// answer against independent ground truth, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	lphbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 times the production configuration with tracing off and
// prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, read from a second, traced pass. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what a workload hands back to main.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	metrics   metricSet // end-to-end or per-layer, by mode
	offered   float64   // open-loop rate, serving workloads only
	clients   int
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	tmp      string // scratch directory for journals, inside the checkout
}

var workloads = map[string]func(config) (*outcome, error){
	"serve-hot":  func(c config) (*outcome, error) { return runServe(c, hotShape) },
	"games-cold": runGames,
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("lphbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: serve-hot or games-cold")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced pass")
	root := fs.String("root", ".", "repository checkout (the benchmark writes only under <root>/.bench_build)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: lphbench --workload serve-hot|games-cold --seed N --seconds S --trace 0|1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lphbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lphbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	calibBefore := calibrate()
	cfg := config{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, tmp: tmp}
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lphbench:", *workload+":", err)
		return 1
	}
	calibAfter := calibrate()

	stamp := map[string]any{
		"workload":          *workload,
		"seed":              *seed,
		"seconds":           *seconds,
		"trace":             *trace,
		"revision":          revision(absRoot),
		"go_version":        runtime.Version(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"num_cpu":           runtime.NumCPU(),
		"calib_before_ms":   calibBefore,
		"calib_after_ms":    calibAfter,
		"offered_ops_per_s": out.offered,
		"clients":           out.clients,
		"date":              time.Now().UTC().Format(time.RFC3339),
	}
	if cfg.traced {
		out.metrics.add("host.calib_ms", (calibBefore+calibAfter)/2, "ms")
		out.metrics.add("loadgen.offered_ops_per_s", out.offered, "1/s")
		out.metrics.add("loadgen.clients", float64(out.clients), "count")
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "lphbench: failed op:", e)
	}
	printHuman(out.metrics)
	line, _ := json.Marshal(stamp) // plain map of scalars
	fmt.Println(string(line))
	res, _ := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	fmt.Println(string(res))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// printHuman lists the metrics one per line, name, value and unit.
func printHuman(m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// revision names the code under test: the VCS revision stamped into
// the build when there is one, else a digest of the sources.
func revision(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "src-sha256:" + sourceDigest(root, filepath.Join(root, "lphbench"))
}
