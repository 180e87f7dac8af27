package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graphio"
	"repro/internal/search"
	"repro/internal/service"
)

// example reads one of the committed example graphs the CLI table runs
// against.
func example(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "graphs", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runCLI invokes run with captured streams.
func runCLI(args []string, stdin string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// reduceGolden computes the exact bytes `lph reduce` must print for the
// given input: the graphio encoding of the shared ops-layer reduction.
// The reductions' semantics are pinned in internal/reduce; here the
// contract is that the CLI is a faithful shell over internal/service.
func reduceGolden(t *testing.T, input, name string) string {
	t.Helper()
	g, err := graphio.Decode(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	res, err := service.Reduce(g, name, search.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.Encode(&buf, res.Out); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sweepGolden computes the exact bytes `lph sweep` must print for the
// given experiment ids: each report as the sequential engine renders
// it, followed by its status line. Reports are engine-invariant (see
// experiments.TestAllOptEngineParity), so every -workers value prints
// the same bytes.
func sweepGolden(t *testing.T, ids []string) string {
	t.Helper()
	var out strings.Builder
	for _, id := range ids {
		spec, ok := experiments.FindSpec(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		out.WriteString(spec.Run(search.Sequential()).String() + id + ": ok\n")
	}
	return out.String()
}

// TestCLITable pins exit code and stdout bytes for every decide /
// verify / reduce / game / sweep subcommand against the examples/graphs
// corpus.
func TestCLITable(t *testing.T) {
	figure1Out := "Figure 1a: 3-colorable=true, 3-round 3-colorable=false\n" +
		"Figure 1b: 3-colorable=true, 3-round 3-colorable=true\n"
	cases := []struct {
		name  string
		args  []string
		input string // example file; "" = no stdin content
		code  int
		out   string // exact stdout; "@reduce" = reduceGolden of the last arg, "@sweep" = sweepGolden of the ids
	}{
		// decide: all three LP properties, both verdicts.
		{"decide/all-selected/yes", []string{"decide", "all-selected"}, "triangle-selected.json", 0, "all-selected: true\n"},
		{"decide/all-selected/no", []string{"decide", "all-selected"}, "triangle-mixed.json", 1, "all-selected: false\n"},
		{"decide/all-equal/yes", []string{"decide", "all-equal"}, "triangle-selected.json", 0, "all-equal: true\n"},
		{"decide/all-equal/no", []string{"decide", "all-equal"}, "triangle-mixed.json", 1, "all-equal: false\n"},
		{"decide/eulerian/yes", []string{"decide", "eulerian"}, "c5.json", 0, "eulerian: true\n"},
		{"decide/eulerian/no", []string{"decide", "eulerian"}, "path4.json", 1, "eulerian: false\n"},
		// verify: every property in the catalog, both verdicts where an
		// example provides one.
		{"verify/2-colorable/yes", []string{"verify", "2-colorable"}, "path4.json", 0, "2-colorable: true\n"},
		{"verify/2-colorable/no", []string{"verify", "2-colorable"}, "c5.json", 1, "2-colorable: false\n"},
		{"verify/3-colorable/yes", []string{"verify", "3-colorable"}, "c5.json", 0, "3-colorable: true\n"},
		{"verify/3-colorable/no", []string{"verify", "3-colorable"}, "k4.json", 1, "3-colorable: false\n"},
		{"verify/4-colorable/yes", []string{"verify", "4-colorable"}, "k4.json", 0, "4-colorable: true\n"},
		{"verify/sat-graph/yes", []string{"verify", "sat-graph"}, "satgraph.json", 0, "sat-graph: true\n"},
		{"verify/hamiltonian/yes", []string{"verify", "hamiltonian"}, "c5.json", 0, "hamiltonian: true\n"},
		{"verify/hamiltonian/no", []string{"verify", "hamiltonian"}, "star4.json", 1, "hamiltonian: false\n"},
		{"verify/not-all-selected/yes", []string{"verify", "not-all-selected"}, "triangle-mixed.json", 0, "not-all-selected: true\n"},
		{"verify/not-all-selected/no", []string{"verify", "not-all-selected"}, "triangle-selected.json", 1, "not-all-selected: false\n"},
		{"verify/one-selected/yes", []string{"verify", "one-selected"}, "star4.json", 0, "one-selected: true\n"},
		{"verify/one-selected/no", []string{"verify", "one-selected"}, "triangle-selected.json", 1, "one-selected: false\n"},
		// reduce: all four reductions; stdout must be byte-identical to
		// the ops-layer result.
		{"reduce/eulerian", []string{"reduce", "eulerian"}, "triangle-selected.json", 0, "@reduce"},
		{"reduce/hamiltonian", []string{"reduce", "hamiltonian"}, "triangle-selected.json", 0, "@reduce"},
		{"reduce/co-hamiltonian", []string{"reduce", "co-hamiltonian"}, "triangle-mixed.json", 0, "@reduce"},
		{"reduce/3color", []string{"reduce", "3color"}, "satgraph.json", 0, "@reduce"},
		// game.
		{"game/figure1", []string{"game", "figure1"}, "", 0, figure1Out},
		// sweep: named experiments through the sharded engine, each full
		// report and its status line in selection order. cook-levin runs
		// the τ-translation probes (k = 2, 3 over seven topologies)
		// against the k-colorability oracle and fails on any mismatch.
		{"sweep/one", []string{"sweep", "figure5"}, "", 0, "@sweep"},
		{"sweep/two", []string{"sweep", "figure9", "figure3"}, "", 0, "@sweep"},
		{"sweep/workers-seq", []string{"-workers", "1", "sweep", "figure7"}, "", 0, "@sweep"},
		{"sweep/workers-par", []string{"-workers", "4", "sweep", "figure7"}, "", 0, "@sweep"},
		{"sweep/cook-levin", []string{"sweep", "cook-levin"}, "", 0, "@sweep"},
		// -workers threads through every subcommand (the decide/reduce
		// paths used to drop it): verdicts and bytes are engine-invariant.
		{"workers/decide-seq", []string{"-workers", "1", "decide", "all-selected"}, "triangle-selected.json", 0, "all-selected: true\n"},
		{"workers/decide-par", []string{"-workers", "4", "decide", "all-selected"}, "triangle-selected.json", 0, "all-selected: true\n"},
		{"workers/verify-seq", []string{"-workers", "1", "verify", "hamiltonian"}, "c5.json", 0, "hamiltonian: true\n"},
		{"workers/verify-par", []string{"-workers", "4", "verify", "hamiltonian"}, "c5.json", 0, "hamiltonian: true\n"},
		{"workers/reduce", []string{"-workers", "2", "reduce", "eulerian"}, "triangle-selected.json", 0, "@reduce"},
		{"workers/game-seq", []string{"-workers", "1", "game", "figure1"}, "", 0, figure1Out},
		{"workers/game-par", []string{"-workers", "4", "game", "figure1"}, "", 0, figure1Out},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdin string
			if tc.input != "" {
				stdin = example(t, tc.input)
			}
			want := tc.out
			switch want {
			case "@reduce":
				want = reduceGolden(t, stdin, tc.args[len(tc.args)-1])
			case "@sweep":
				want = sweepGolden(t, tc.args[slices.Index(tc.args, "sweep")+1:])
			}
			code, stdout, stderr := runCLI(tc.args, stdin)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if stdout != want {
				t.Fatalf("stdout:\n%q\nwant:\n%q", stdout, want)
			}
			if stderr != "" {
				t.Fatalf("unexpected stderr: %q", stderr)
			}
		})
	}
}

// TestCLIErrors pins exit code 2 (with empty stdout and a diagnostic on
// stderr) for usage errors, unknown names, and malformed input.
func TestCLIErrors(t *testing.T) {
	valid := `{"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","1","1"]}`
	cases := []struct {
		name  string
		args  []string
		input string
	}{
		{"no-args", nil, ""},
		{"bogus-subcommand", []string{"bogus"}, ""},
		{"decide/no-name", []string{"decide"}, valid},
		{"decide/extra-args", []string{"decide", "all-selected", "extra"}, valid},
		{"decide/unknown", []string{"decide", "nope"}, valid},
		{"verify/unknown", []string{"verify", "nope"}, valid},
		{"reduce/unknown", []string{"reduce", "nope"}, valid},
		{"game/unknown", []string{"game", "bogus"}, ""},
		{"sweep/unknown", []string{"sweep", "nope"}, ""},
		{"sweep/mixed-unknown", []string{"sweep", "figure5", "nope"}, ""},
		{"workers/negative", []string{"-workers", "-3", "game", "figure1"}, ""},
		{"sweep/workers-negative", []string{"-workers", "-1", "sweep", "figure5"}, ""},
		{"sweep/stray-flag", []string{"sweep", "-only", "figure5"}, ""},
		{"flag/unknown", []string{"-bogus", "decide", "all-selected"}, valid},
		{"decide/not-json", []string{"decide", "all-selected"}, "not json"},
		{"decide/trailing", []string{"decide", "all-selected"}, valid + " trailing"},
		{"decide/second-object", []string{"decide", "all-selected"}, valid + `{"n":1}`},
		{"verify/not-json", []string{"verify", "3-colorable"}, "not json"},
		{"verify/trailing", []string{"verify", "3-colorable"}, valid + " trailing"},
		{"reduce/not-json", []string{"reduce", "hamiltonian"}, "not json"},
		{"reduce/trailing", []string{"reduce", "hamiltonian"}, valid + `{"n":1}`},
		{"decide/disconnected", []string{"decide", "all-selected"}, `{"n":2,"edges":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(tc.args, tc.input)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stdout: %q, stderr: %q)", code, stdout, stderr)
			}
			if stdout != "" {
				t.Fatalf("usage error wrote to stdout: %q", stdout)
			}
			if stderr == "" {
				t.Fatal("usage error left stderr empty")
			}
		})
	}
}

// sentinelReader fails the test if anything reads from it.
type sentinelReader struct{ t *testing.T }

func (s sentinelReader) Read([]byte) (int, error) {
	s.t.Fatal("stdin was read before the name was validated")
	return 0, io.EOF
}

// TestCLINameCheckBeforeStdin: an unknown catalog name must fail
// without touching stdin — at a terminal the old flow would otherwise
// sit waiting for graph JSON before reporting the typo.
func TestCLINameCheckBeforeStdin(t *testing.T) {
	for _, args := range [][]string{
		{"decide", "nope"},
		{"verify", "nope"},
		{"reduce", "nope"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, sentinelReader{t}, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), `"nope"`) {
			t.Fatalf("%v: stderr %q does not name the typo", args, errb.String())
		}
	}
}

// TestCLIMatchesOps spot-checks that CLI verdicts agree with direct
// ops-layer calls on the same graphs — the "identical code path"
// guarantee made by the refactor onto internal/service.
func TestCLIMatchesOps(t *testing.T) {
	for _, file := range []string{"triangle-selected.json", "c5.json", "star4.json"} {
		input := example(t, file)
		g, err := graphio.Decode(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		prep, err := service.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, prop := range service.VerifyNames() {
			want, err := service.Verify(prep, prop, search.Sequential())
			if err != nil {
				t.Fatalf("%s %s: %v", file, prop, err)
			}
			code, stdout, _ := runCLI([]string{"verify", prop}, input)
			wantCode := 1
			if want {
				wantCode = 0
			}
			if code != wantCode {
				t.Fatalf("%s verify %s: CLI exit %d, ops verdict %v", file, prop, code, want)
			}
			if !strings.Contains(stdout, prop+":") {
				t.Fatalf("%s verify %s: stdout %q", file, prop, stdout)
			}
		}
	}
}
