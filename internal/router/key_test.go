package router

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphio"
)

// The oracle is the key extraction the scan replaced: a lenient
// encoding/json probe of the envelope, then graphio.Decode and
// graph.Hash on each graph. It stays here as the reference the scan is
// checked against.
type oracleProbe struct {
	Graph  json.RawMessage   `json:"graph"`
	Graphs []json.RawMessage `json:"graphs"`
	Game   string            `json:"game"`
}

func oracleGraphKey(body []byte) string {
	var p oracleProbe
	if err := json.Unmarshal(body, &p); err != nil || len(p.Graph) == 0 {
		return bodyKey(body)
	}
	g, err := graphio.Decode(bytes.NewReader(p.Graph))
	if err != nil {
		return bodyKey(body)
	}
	return "graph/" + g.Hash()
}

func oracleBatchKey(body []byte) string {
	var p oracleProbe
	if err := json.Unmarshal(body, &p); err != nil || len(p.Graphs) == 0 {
		return bodyKey(body)
	}
	h := sha256.New()
	for _, raw := range p.Graphs {
		g, err := graphio.Decode(bytes.NewReader(raw))
		if err != nil {
			return bodyKey(body)
		}
		_, _ = h.Write([]byte(g.Hash()))
	}
	return "batch/" + hex.EncodeToString(h.Sum(nil))
}

func oracleGameKey(body []byte) string {
	var p oracleProbe
	if err := json.Unmarshal(body, &p); err != nil || p.Game == "" {
		return bodyKey(body)
	}
	return "game/" + p.Game
}

// keyCases pairs each route's key function with its oracle.
var keyCases = []struct {
	route       string
	scan, model func([]byte) string
}{
	{"graph", graphKey, oracleGraphKey},
	{"batch", batchKey, oracleBatchKey},
	{"game", gameKey, oracleGameKey},
}

// routeKeySeeds are serializations of generated graphs the scan must
// key without declining: graphio.Encode's indented form, compact
// bodies, shuffled, flipped and duplicated edges, members in another
// order, extra whitespace, omitted labels, serve-hot-style bodies, and
// batches of them.
func routeKeySeeds() []string {
	rng := rand.New(rand.NewSource(3))
	var seeds []string
	for _, g := range []*graph.Graph{
		graph.Single("1"),
		graph.Cycle(3).MustWithLabels([]string{"1", "1", "1"}),
		graph.Grid(5, 6).MustWithLabels(randomBits(30, rng)),
		graph.RandomConnected(7, 0.4, rng).MustWithLabels(randomBits(7, rng)),
		graph.Path(4).MustWithLabels([]string{"", "01", "1", "110"}),
		graph.Star(5),
	} {
		var enc bytes.Buffer
		if err := graphio.Encode(&enc, g); err != nil {
			panic(err)
		}
		compact := compactGraph(g, g.Edges(), true)
		seeds = append(seeds,
			`{"graph": `+enc.String()+`, "property": "all-selected"}`,
			`{"graph":`+compact+`,"property":"all-selected"}`,
			`{"property":"all-selected","workers":2,"graph":`+compact+`}`,
			"\n{ \"graph\" :\t"+strings.ReplaceAll(compact, ",", " ,\r\n ")+" }\n",
			`{"graph":`+compactGraph(g, messEdges(g, rng), true)+`,"property":"3-colorable"}`,
			`{"graph":`+reorderedGraph(g, messEdges(g, rng))+`,"property":"3-colorable"}`,
			servedBody(g, "all-selected", rng),
			`{"op":"verify","property":"3-colorable","graphs":[`+compact+`,`+compactGraph(g, messEdges(g, rng), true)+`]}`,
			`{"game":"figure1","workers":1,"graph":`+compact+`}`,
		)
		if g.Hash() == graph.MustNew(g.N(), g.Edges(), nil).Hash() {
			seeds = append(seeds, `{"graph":`+compactGraph(g, messEdges(g, rng), false)+`}`)
		}
	}
	return seeds
}

// shuffledEdges is g's edge list shuffled, each edge's endpoints in
// random order.
func shuffledEdges(g *graph.Graph, rng *rand.Rand) []graph.Edge {
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i, e := range edges {
		if rng.Intn(2) == 0 {
			edges[i] = graph.Edge{U: e.V, V: e.U}
		}
	}
	return edges
}

// messEdges is shuffledEdges with one edge repeated.
func messEdges(g *graph.Graph, rng *rand.Rand) []graph.Edge {
	edges := shuffledEdges(g, rng)
	if len(edges) > 0 {
		edges = append(edges, edges[rng.Intn(len(edges))])
	}
	return edges
}

func edgeList(edges []graph.Edge) string {
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("[%d,%d]", e.U, e.V)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func labelList(g *graph.Graph) string {
	out, err := json.Marshal(g.Labels())
	if err != nil {
		panic(err)
	}
	return string(out)
}

// compactGraph is g in the graphio format with the given edge list,
// labels included or omitted.
func compactGraph(g *graph.Graph, edges []graph.Edge, labels bool) string {
	s := fmt.Sprintf(`{"n":%d,"edges":%s`, g.N(), edgeList(edges))
	if labels {
		s += `,"labels":` + labelList(g)
	}
	return s + "}"
}

// reorderedGraph is g with labels first and n last.
func reorderedGraph(g *graph.Graph, edges []graph.Edge) string {
	return fmt.Sprintf(`{"labels":%s,"edges":%s,"n":%d}`, labelList(g), edgeList(edges), g.N())
}

// FuzzRouteKey checks the scan against the oracle: on any body, each
// route's key is the oracle's key or the body key (the scan declined),
// never a different graph, batch or game key. On the seeds the scan
// must not decline where the oracle keys the body.
func FuzzRouteKey(f *testing.F) {
	for _, seed := range routeKeySeeds() {
		body := []byte(seed)
		keyed := false
		for _, c := range keyCases {
			want := c.model(body)
			if strings.HasPrefix(want, "body/") {
				continue
			}
			keyed = true
			if got := c.scan(body); got != want {
				f.Fatalf("%s key of seed %s\n= %s, want the oracle's %s", c.route, seed, got, want)
			}
		}
		if !keyed {
			f.Fatalf("seed keys on its bytes on every route: %s", seed)
		}
		f.Add(body)
	}
	for _, seed := range []string{
		`{"graph":{"n":3,"edges":[[0,1],[1,2]],"labels":["1","0","1"]},"property":"ab"}`,
		`{"Graph":{"n":2,"edges":[[0,1]]}}`,
		`{"graph":{"n":2,"edges":[[0,1]]},"graph":{"n":1}}`,
		`{"graph":{"n":2,"edges":[[0,1,2]]}}`,
		`{"graph":{"n":2,"edges":[[0,1]],"labels":null}}`,
		`{"graph":{"n":2.0,"edges":[[0,1]]}}`,
		`{"graph":{"n":3,"edges":[[0,1]]}}`,
		`{"graph":{"n":2,"edges":[[0,1]]}} {}`,
		`{"graphs":[],"game":"figure1","seed":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		declined := bodyKey(body)
		for _, c := range keyCases {
			if got, want := c.scan(body), c.model(body); got != want && got != declined {
				t.Fatalf("%s key of %q\n= %s, want the oracle's %s or the body key", c.route, body, got, want)
			}
		}
	})
}

// TestScanDeclines pins the bodies outside the scan's subset that the
// oracle still keys by their graph: the scan hands each to the body key
// rather than guessing.
func TestScanDeclines(t *testing.T) {
	t.Parallel()
	for _, body := range []string{
		`{"graph":{"n":2,"edges":[[0,1]]},"property":"all\u002dselected"}`, // escape in another member
		`{"graph":{"n":2,"edges":[[0,1]]},"extra":{"x":1}}`,                // nested value in another member
		`{"graph":{"n":2,"edges":[[0,1]]},"extra":true}`,                   // boolean
		`{"graph":{"n":2,"edges":[[0,1]]},"extra":null}`,                   // null
		`{"graph":{"n":2,"edges":[[0,1]]},"workers":1.5}`,                  // fraction
		`{"graph":{"n":2,"edges":[[0,1]],"labels":null}}`,                  // null labels
		`{"graph":{"N":2,"edges":[[0,1]]}}`,                                // case-variant member
		`{"graph":{"n":2,"edges":[[0,1]],"note":"x"}}`,                     // unknown graph member
		`{"graph":{"n":2,"edges":[[0,1],[1,0,7]]}}`,                        // three-element edge
	} {
		if got, want := graphKey([]byte(body)), oracleGraphKey([]byte(body)); !strings.HasPrefix(want, "graph/") || got != bodyKey([]byte(body)) {
			t.Errorf("%s: scan key %s, oracle key %s; want the scan to decline a body the oracle keys", body, got, want)
		}
	}
}
