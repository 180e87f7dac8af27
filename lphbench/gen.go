package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// request is one operation of a serving workload's stream.
type request struct {
	job     bool   // a job submit followed by a status read, else a verdict
	path    string // /v1/decide, /v1/verify or /v1/jobs
	body    []byte
	idemKey string // job submits only
	want    bool   // verdict ops: the ground-truth verdict
	graph   int    // verdict ops: which distinct graph the body carries
}

// stream is a serving workload's whole input, generated from the seed
// before anything is timed. The program under test sees only the
// request bodies.
type stream struct {
	reqs  []request
	prime []request // serve-hot: the canonical hot bodies, sent during set-up
}

// bytes renders the stream canonically, so tests can compare two
// streams byte for byte.
func (s *stream) bytes() []byte {
	var b bytes.Buffer
	for _, set := range [][]request{s.prime, s.reqs} {
		for _, r := range set {
			fmt.Fprintf(&b, "%s %s %t %d\n%s\n", r.path, r.idemKey, r.want, r.graph, r.body)
		}
	}
	return b.Bytes()
}

// encodeGraph writes g in the graphio wire format with its edges in the
// given order; perm == nil keeps the canonical order.
func encodeGraph(b *bytes.Buffer, g *graphT, rng *rand.Rand, shuffle bool) {
	edges := g.Edges()
	if shuffle {
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	}
	b.WriteString(`{"n":`)
	b.WriteString(strconv.Itoa(g.N()))
	b.WriteString(`,"edges":[`)
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		u, v := e.U, e.V
		if shuffle && rng.Intn(2) == 0 {
			u, v = v, u
		}
		fmt.Fprintf(b, "[%d,%d]", u, v)
	}
	b.WriteString(`],"labels":[`)
	for u := 0; u < g.N(); u++ {
		if u > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(g.Label(u)))
	}
	b.WriteString(`]}`)
}

func verdictBody(g *graphT, property string, rng *rand.Rand, shuffle bool) []byte {
	var b bytes.Buffer
	b.WriteString(`{"graph":`)
	encodeGraph(&b, g, rng, shuffle)
	b.WriteString(`,"property":`)
	b.WriteString(strconv.Quote(property))
	b.WriteString(`}`)
	return b.Bytes()
}

// randomLabels draws 0/1 labels; with probability pAll every node is
// selected, with probability pOne exactly one is.
func randomLabels(n int, rng *rand.Rand, pAll, pOne float64) []string {
	ls := make([]string, n)
	x := rng.Float64()
	for u := range ls {
		ls[u] = "0"
		switch {
		case x < pAll:
			ls[u] = "1"
		case x >= pAll+pOne && rng.Intn(2) == 0:
			ls[u] = "1"
		}
	}
	if x >= pAll && x < pAll+pOne {
		ls[rng.Intn(n)] = "1"
	}
	return ls
}

// randomConnected is a random spanning tree plus each remaining pair
// with probability p, labelled.
func randomConnected(n int, p float64, labels []string, rng *rand.Rand) *graphT {
	seen := map[[2]int]bool{}
	var edges []edgeT
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		seen[[2]int{u, v}] = true
		edges = append(edges, edgeT{U: u, V: v})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !seen[[2]int{u, v}] && rng.Float64() < p {
				edges = append(edges, edgeT{U: u, V: v})
			}
		}
	}
	g, err := newGraph(n, edges, labels)
	if err != nil {
		panic(err) // connected and simple by construction
	}
	return g
}

// relabel returns g's shape with new labels.
func relabel(g *graphT, labels []string) *graphT {
	h, err := newGraph(g.N(), g.Edges(), labels)
	if err != nil {
		panic(err) // same shape, valid labels
	}
	return h
}

// Served properties: the Σ3 verifies run only on small graphs (their
// Adam level enumerates 2^n challenges), the rest on larger ones.
var (
	sigma3Verifies = []string{"not-all-selected", "one-selected"}
	colorVerifies  = []string{"2-colorable", "3-colorable"}
	decides        = []string{"all-selected", "eulerian", "all-equal"}
)

// truth is the ground-truth verdict of a served property, from props.
func truth(property string, g *graphT) bool {
	switch property {
	case "not-all-selected":
		return truthNotAllSelected(g)
	case "one-selected":
		return truthOneSelected(g)
	case "2-colorable":
		return truthKColorable(g, 2)
	case "3-colorable":
		return truthKColorable(g, 3)
	case "all-selected":
		return truthAllSelected(g)
	case "eulerian":
		return truthEulerian(g)
	case "all-equal":
		for u := 1; u < g.N(); u++ {
			if g.Label(u) != g.Label(0) {
				return false
			}
		}
		return true
	}
	panic("no ground truth for " + property)
}

func pathFor(property string) string {
	for _, d := range decides {
		if d == property {
			return "/v1/decide"
		}
	}
	return "/v1/verify"
}

// smallInstance is an n-node labelled random graph for a Σ3 verify,
// with n 6 or 7. (At 8 and 9 nodes one verify takes 60–250 ms, and the
// tail latency of a run would hang on a handful of them.)
func smallInstance(rng *rand.Rand, n int) *graphT {
	return randomConnected(n, 0.3, randomLabels(n, rng, 0.25, 0.35), rng)
}

// largeProps are the properties served on larger graphs.
var largeProps = append(append([]string(nil), colorVerifies...), decides...)

// largeInstance is a labelled tree (family 0), grid (1) or cycle (2)
// with nodes in [lo, hi], for a colorability verify or a decide.
func largeInstance(rng *rand.Rand, lo, hi, family int) *graphT {
	var g *graphT
	switch family {
	case 0:
		g = randomConnected(lo+rng.Intn(hi-lo+1), 0, nil, rng)
	case 1:
		r := 2 + rng.Intn(5)
		c := (lo+r-1)/r + rng.Intn(hi/r-(lo+r-1)/r+1)
		g = gridGraph(r, c)
	default:
		g = cycleGraph(lo + rng.Intn(hi-lo+1))
	}
	return relabel(g, randomLabels(g.N(), rng, 0.3, 0))
}

// Serving stream shapes.
const (
	hotKeys       = 64   // distinct (graph, property) pairs of serve-hot
	hotSmallKeys  = 16   // of which are Σ3 verifies on small graphs
	hotVariants   = 17   // serializations per hot key: canonical + 16 shuffled
	hotJobFrac    = 0.05 // share of serve-hot ops that are job submits
	hotIdemRepeat = 0.5  // share of job submits that reuse an earlier key
	hotJob        = "figure5"
)

// hotStream is serve-hot: a fixed hot set small enough for every
// node's Prepared cache and memo, hit with Zipf skew, some repeats
// re-serialized with shuffled edges, plus keyed job submits.
func hotStream(seed int64, n int) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{}
	type key struct {
		graph    int
		property string
		variants [][]byte
		want     bool
	}
	// The key's kind is fixed by its index, so the Zipf head has the
	// same make-up on every seed; the seed draws the graphs. Every
	// fourth key is a Σ3 verify on a small graph.
	keys := make([]key, hotKeys)
	seen := map[string]bool{}
	for i := range keys {
		var g *graphT
		prop := largeProps[i%len(largeProps)]
		if i%4 == 0 {
			prop = sigma3Verifies[(i/4)%len(sigma3Verifies)]
		}
		for {
			if i%4 == 0 {
				g = smallInstance(rng, 6+rng.Intn(2))
			} else {
				g = largeInstance(rng, 20, 32, i%3)
			}
			if h := graphHash(g); !seen[h] {
				seen[h] = true
				break
			}
		}
		k := key{graph: i, property: prop, want: truth(prop, g)}
		for v := 0; v < hotVariants; v++ {
			k.variants = append(k.variants, verdictBody(g, prop, rng, v > 0))
		}
		keys[i] = k
		// Only the canonical body is primed: a shuffled one misses the
		// request-level memo the first time it is sent, and is then
		// answered from the Prepared cache and the graph-hash memo.
		s.prime = append(s.prime, request{path: pathFor(prop), body: k.variants[0], want: k.want, graph: i})
	}
	zipf := rand.NewZipf(rng, 1.1, 1, hotKeys-1)
	var idem []string
	for len(s.reqs) < n {
		if rng.Float64() < hotJobFrac {
			var k string
			if len(idem) > 0 && rng.Float64() < hotIdemRepeat {
				k = idem[rng.Intn(len(idem))]
			} else {
				k = fmt.Sprintf("bench-%d-%d", seed, len(idem))
				idem = append(idem, k)
			}
			s.reqs = append(s.reqs, request{job: true, path: "/v1/jobs", idemKey: k,
				body: []byte(`{"job":"experiment","name":"` + hotJob + `"}`)})
			continue
		}
		k := keys[zipf.Uint64()]
		v := 0
		if rng.Intn(4) == 0 {
			v = 1 + rng.Intn(hotVariants-1)
		}
		s.reqs = append(s.reqs, request{path: pathFor(k.property), body: k.variants[v], want: k.want, graph: k.graph})
	}
	return s
}
