// Package arbiters provides concrete locally polynomial machines (in the
// functional form of package simulate) for the graph properties studied in
// the paper: LP-deciders, NLP-verifiers, and the Eve strategies that
// produce their winning certificates (Sections 4, 5.2 and 8).
package arbiters

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/sat"
	"repro/internal/simulate"
)

func verdict(ok bool) string {
	if ok {
		return "1"
	}
	return "0"
}

// AllSelected returns the one-round LP-decider for all-selected: each node
// accepts iff its own label is "1" (Remark 17).
func AllSelected() *simulate.Machine {
	type st struct{ ok bool }
	return &simulate.Machine{
		Name: "lp:all-selected",
		Init: func(in simulate.Input) any { return &st{ok: in.Label == "1"} },
		Round: func(s any, _ int, _ []string) ([]string, bool) {
			return nil, true
		},
		Output: func(s any) string { return verdict(s.(*st).ok) },
	}
}

// Eulerian returns the LP-decider for Eulerianness: by Euler's theorem a
// connected graph is Eulerian iff every node has even degree, so each node
// accepts iff its own degree is even (Proposition 18).
func Eulerian() *simulate.Machine {
	type st struct{ ok bool }
	return &simulate.Machine{
		Name: "lp:eulerian",
		Init: func(in simulate.Input) any { return &st{ok: in.Degree%2 == 0} },
		Round: func(s any, _ int, _ []string) ([]string, bool) {
			return nil, true
		},
		Output: func(s any) string { return verdict(s.(*st).ok) },
	}
}

// AllEqual returns a two-round LP-decider for "all node labels are equal".
func AllEqual() *simulate.Machine {
	type st struct {
		label string
		ok    bool
	}
	return &simulate.Machine{
		Name: "lp:all-equal",
		Init: func(in simulate.Input) any {
			return &st{label: in.Label, ok: true}
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			if round == 1 {
				return simulate.Broadcast(recv, s.label), false
			}
			for _, m := range recv {
				if m != s.label {
					s.ok = false
				}
			}
			return nil, true
		},
		Output: func(sv any) string { return verdict(sv.(*st).ok) },
	}
}

// colorBits is the fixed certificate width used by the coloring verifiers.
func colorBits(k int) int {
	w := 1
	for 1<<uint(w) < k {
		w++
	}
	return w
}

// KColorable returns the NLP-verifier for k-colorability: Eve's certificate
// κ1(u) is u's color, encoded as exactly colorBits(k) characters from
// {0,1} with a value below k; nodes exchange colors in one round and
// verify validity and properness in the next. A node whose own
// certificate is no color rejects and halts in round 1. A node that
// rejects in round 2 blames its first neighbour of the same color: that
// neighbour's message alone fixes the reject. This is the machine side
// of Example 5 / Theorem 23.
func KColorable(k int) *simulate.Machine {
	width := colorBits(k)
	type st struct {
		color string
		ok    bool
		blame int // the first port whose color is mine (−1: none)
	}
	return &simulate.Machine{
		Name: fmt.Sprintf("nlp:%d-colorable", k),
		Init: func(in simulate.Input) any {
			s := &st{blame: -1}
			if len(in.Certs) >= 1 {
				s.color = in.Certs[0]
			}
			// The certificate must be a valid color.
			v := 0
			s.ok = len(s.color) == width
			for i := 0; i < len(s.color) && s.ok; i++ {
				b := s.color[i]
				s.ok = b == '0' || b == '1'
				v = v<<1 | int(b-'0')
			}
			s.ok = s.ok && v < k
			return s
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			if round == 1 {
				return simulate.Broadcast(recv, s.color), !s.ok
			}
			for j, m := range recv {
				if m == s.color && s.ok {
					s.ok, s.blame = false, j // a neighbor shares my color
				}
			}
			return nil, true
		},
		Output: func(sv any) string { return verdict(sv.(*st).ok) },
		Blame:  func(sv any) int { return sv.(*st).blame },
	}
}

// ColoringStrategy returns Eve's strategy for the k-colorability game: she
// computes a proper k-coloring centrally (she is an all-powerful prover)
// and hands each node its color as the certificate. The strategy fails
// (returns an error-free losing move of empty certificates) when the graph
// is not k-colorable, so that the verifier rejects.
func ColoringStrategy(k int) core.Strategy {
	width := colorBits(k)
	return func(g *graph.Graph, _ graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		colors, ok := props.KColoring(g, k)
		out := make(cert.Assignment, g.N())
		if !ok {
			return out, nil // losing move; no winning one exists
		}
		for u, c := range colors {
			s := strconv.FormatInt(int64(c), 2)
			for len(s) < width {
				s = "0" + s
			}
			out[u] = s
		}
		return out, nil
	}
}

// encodeValuation encodes a valuation of the given variables as
// "name:b" pairs joined by ";" in sorted order. (The formal model would
// bit-encode this string; the engine works with the readable form.)
func encodeValuation(vars []string, val map[string]bool) string {
	sorted := append([]string(nil), vars...)
	sort.Strings(sorted)
	parts := make([]string, len(sorted))
	for i, v := range sorted {
		b := "0"
		if val[v] {
			b = "1"
		}
		parts[i] = v + ":" + b
	}
	return strings.Join(parts, ";")
}

// decodeValuation reverses encodeValuation. It reports ok=false for
// malformed certificates.
func decodeValuation(s string) (map[string]bool, bool) {
	out := make(map[string]bool)
	if s == "" {
		return out, true
	}
	for _, part := range strings.Split(s, ";") {
		i := strings.LastIndexByte(part, ':')
		if i < 0 || i+2 != len(part) {
			return nil, false
		}
		switch part[i+1] {
		case '0':
			out[part[:i]] = false
		case '1':
			out[part[:i]] = true
		default:
			return nil, false
		}
	}
	return out, true
}

// SatGraph returns the NLP-verifier for the Boolean graph satisfiability
// property sat-graph of Section 8 (the distributed Cook–Levin problem):
// Eve's certificate κ1(u) encodes a valuation of the variables of u's
// formula; each node checks in one communication round that its valuation
// satisfies its own formula and agrees with its neighbors' valuations on
// all shared variables. A node that rejects in round 2 blames the first
// neighbour whose valuation is malformed or disagrees with its own.
func SatGraph() *simulate.Machine {
	type st struct {
		ok      bool
		formula sat.Formula
		val     map[string]bool
		enc     string
		blame   int // the first port whose valuation failed a check (−1: none)
	}
	return &simulate.Machine{
		Name: "nlp:sat-graph",
		Init: func(in simulate.Input) any {
			s := &st{ok: true, blame: -1}
			f, err := sat.DecodeLabel(in.Label)
			if err != nil {
				s.ok = false
				return s
			}
			s.formula = f
			if len(in.Certs) >= 1 {
				s.enc = in.Certs[0]
			}
			val, valid := decodeValuation(s.enc)
			if !valid {
				s.ok = false
				return s
			}
			s.val = val
			// The valuation must cover and satisfy the node's formula.
			for _, v := range sat.Vars(f) {
				if _, covered := val[v]; !covered {
					s.ok = false
					return s
				}
			}
			if !f.Eval(val) {
				s.ok = false
			}
			return s
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			if round == 1 {
				return simulate.Broadcast(recv, s.enc), !s.ok
			}
			if !s.ok {
				return nil, true
			}
			for j, m := range recv {
				nval, valid := decodeValuation(m)
				for name, b := range s.val {
					if nb, shared := nval[name]; shared && nb != b {
						valid = false
					}
				}
				if !valid && s.ok {
					s.ok, s.blame = false, j
				}
			}
			return nil, true
		},
		Output: func(sv any) string { return verdict(sv.(*st).ok) },
		Blame:  func(sv any) int { return sv.(*st).blame },
	}
}

// SatGraphStrategy returns Eve's strategy for the sat-graph game: she
// solves the joint satisfiability problem centrally and distributes the
// per-node valuations as certificates.
func SatGraphStrategy() core.Strategy {
	return func(g *graph.Graph, _ graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		out := make(cert.Assignment, g.N())
		bg, err := sat.DecodeBooleanGraph(g)
		if err != nil {
			return out, nil // undecodable: any move loses, as it should
		}
		vals, ok := bg.Valuations()
		if !ok {
			return out, nil
		}
		for u := range out {
			out[u] = encodeValuation(sat.Vars(bg.Formulas[u]), vals[u])
		}
		return out, nil
	}
}

// TwoColorable is KColorable(2); exported for readability at call sites.
func TwoColorable() *simulate.Machine { return KColorable(2) }

// ThreeColorable is KColorable(3).
func ThreeColorable() *simulate.Machine { return KColorable(3) }
