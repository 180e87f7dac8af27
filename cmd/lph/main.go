// Command lph is the command-line interface to the locally polynomial
// hierarchy library: it decides and verifies graph properties on graphs
// read from JSON, runs the paper's reductions, and plays the Eve/Adam
// certificate games.
//
// Usage:
//
//	lph [-workers N] decide <property>  < graph.json
//	    property: all-selected | eulerian | all-equal
//	lph [-workers N] verify <property>  < graph.json
//	    property: 2-colorable | 3-colorable | 4-colorable | sat-graph |
//	              hamiltonian | not-all-selected | one-selected
//	    (plays the certificate game with Eve's strategy from the paper)
//	lph [-workers N] reduce <reduction> < graph.json   (prints the output graph JSON)
//	    reduction: eulerian | hamiltonian | co-hamiltonian | 3color
//	lph [-workers N] game figure1       (plays the 3-round 3-colorability game)
//	lph [-workers N] sweep [id ...]     (runs the paper's experiment suite)
//	    id: figure1 … figure9, figure11, examples, fagin, cook-levin, lemma13
//	    (no ids = the whole suite; prints each experiment's report and
//	    then its "id: ok" or "id: FAILED" line; -workers reaches only
//	    figure1 and figure2, every other experiment runs sequentially)
//
// Every subcommand body lives in internal/service — the same operation
// layer the lphd HTTP server routes to — so the CLI and the service run
// identical code paths.
//
// -workers N sets the worker-pool size for exhaustive game evaluation
// (0, the default, uses every CPU; 1 forces the sequential engine). It
// is threaded through every subcommand: the game subcommand and the
// certificate games behind verify fan out across the pool
// (service.VerifyMemo plays them with core.StrategyGameValueEngine:
// Adam's universal levels split); decide runs one machine, which never
// fans out. Note the engine skips the pool on spaces too small to be worth
// splitting — the Figure 1 instances are in that regime, so both
// engines cost the same there.
//
// Exit status: 0 = property holds / reduction succeeded / every selected
// experiment reproduces the paper's claim, 1 = property does not hold /
// an experiment failed, 2 = usage or input error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simulate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes one CLI invocation against explicit streams, so the test
// suite asserts exit codes and output bytes without touching the
// process's real stdin/stdout.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lph", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // usage() prints our own message
	workers := fs.Int("workers", 0,
		"worker-pool size for exhaustive game evaluation (0 = all CPUs, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		usage(stderr)
		return 2
	}
	args = fs.Args()
	if len(args) < 1 || *workers < 0 {
		usage(stderr)
		return 2
	}
	engine := search.Parallel(*workers)
	switch args[0] {
	case "decide":
		return verdict(args[1:], engine, "LP property", service.HasDecide, service.Decide,
			stdin, stdout, stderr)
	case "verify":
		return verdict(args[1:], engine, "verifiable property", service.HasVerify, service.Verify,
			stdin, stdout, stderr)
	case "reduce":
		return reduction(args[1:], engine, stdin, stdout, stderr)
	case "game":
		return game(args[1:], engine, stdout, stderr)
	case "sweep":
		return sweep(args[1:], engine, stdout, stderr)
	default:
		usage(stderr)
		return 2
	}
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, "usage: lph [-workers N] {decide|verify|reduce|game|sweep} <name> < graph.json")
}

func readGraph(stdin io.Reader, stderr io.Writer) (*graph.Graph, bool) {
	g, err := graphio.Decode(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "lph:", err)
		return nil, false
	}
	return g, true
}

// fail prints an operation error and maps it to the exit code: catalog
// misses are usage errors (2), everything else is an input/engine error
// (also 2 — the 0/1 codes are reserved for verdicts).
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "lph:", err)
	return 2
}

// verdict runs decide or verify — the two verdict-shaped operations —
// through the shared service ops against a freshly prepared instance.
// The catalog is consulted before stdin is touched, so an unknown name
// fails immediately instead of waiting for graph JSON at a terminal.
func verdict(args []string, engine search.Options, noun string,
	has func(name string) bool,
	eval func(prep *simulate.Prepared, name string, o search.Options) (bool, error),
	stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		usage(stderr)
		return 2
	}
	if !has(args[0]) {
		fmt.Fprintf(stderr, "lph: unknown %s %q\n", noun, args[0])
		return 2
	}
	g, ok := readGraph(stdin, stderr)
	if !ok {
		return 2
	}
	prep, err := service.Prepare(g)
	if err != nil {
		return fail(stderr, err)
	}
	holds, err := eval(prep, args[0], engine)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%s: %v\n", args[0], holds)
	if holds {
		return 0
	}
	return 1
}

func reduction(args []string, engine search.Options, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		usage(stderr)
		return 2
	}
	if !service.HasReduce(args[0]) {
		fmt.Fprintf(stderr, "lph: unknown reduction %q\n", args[0])
		return 2
	}
	g, ok := readGraph(stdin, stderr)
	if !ok {
		return 2
	}
	res, err := service.Reduce(g, args[0], engine)
	if err != nil {
		return fail(stderr, err)
	}
	if err := graphio.Encode(stdout, res.Out); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func game(args []string, engine search.Options, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		usage(stderr)
		return 2
	}
	results, err := service.Game(args[0], engine)
	if err != nil {
		if errors.Is(err, service.ErrUnknownName) {
			usage(stderr)
			return 2
		}
		return fail(stderr, err)
	}
	for _, r := range results {
		fmt.Fprintf(stdout, "%s: 3-colorable=%v, 3-round 3-colorable=%v\n",
			r.Graph, r.ThreeColorable, r.ThreeRoundColorable)
	}
	return 0
}

// sweep runs the named experiments (all of them with no arguments) in
// selection order. The engine reaches only figure1's game and figure2's
// batched separations; the other experiments check their instances one
// after another. Each experiment's full report goes to stdout, followed
// by its status line.
func sweep(args []string, engine search.Options, stdout, stderr io.Writer) int {
	specs := experiments.Index()
	if len(args) > 0 {
		specs = specs[:0:0]
		for _, id := range args {
			s, ok := experiments.FindSpec(id)
			if !ok {
				fmt.Fprintf(stderr, "lph: unknown experiment %q\n", id)
				return 2
			}
			specs = append(specs, s)
		}
	}
	code := 0
	for _, spec := range specs {
		rep := spec.Run(engine)
		status := "ok"
		if !rep.OK() {
			status, code = "FAILED", 1
		}
		fmt.Fprintf(stdout, "%s%s: %s\n", rep, spec.ID, status)
	}
	return code
}
