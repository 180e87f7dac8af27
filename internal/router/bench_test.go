package router

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

// BenchmarkRouterHop measures what the front door costs: the same
// memo-warm decide request against a node directly and through the
// router (body buffering, affinity hashing, one extra HTTP round
// trip). The /direct-vs-/routed pair is gated by cmd/benchdelta's
// -hop budget, the router-hop analogue of the tracing-overhead gate.
func BenchmarkRouterHop(b *testing.B) {
	svc := service.New(service.Config{Workers: 2, CacheSize: 8, MemoSize: 64})
	defer svc.Close()
	node := httptest.NewServer(svc.Handler())
	defer node.Close()
	rt := New(Config{
		Nodes:         []string{strings.TrimPrefix(node.URL, "http://")},
		Client:        &http.Client{Timeout: 10 * time.Second},
		ProbeInterval: time.Hour,
	})
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	client := &http.Client{}
	post := func(url string) {
		resp, err := client.Post(url+"/v1/decide", "application/json", strings.NewReader(triangleBody))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("decide: %d", resp.StatusCode)
		}
	}
	post(node.URL) // warm the cache and memo so both arms measure the hop, not the game

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(node.URL)
		}
	})
	b.Run("routed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(front.URL)
		}
	})
}

// BenchmarkRouteKey times the affinity key of a verdict body the way
// serve-hot sends it (compact, edges shuffled with random endpoint
// order, labels present): a labelled 30-node grid and a 7-node random
// graph.
func BenchmarkRouteKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid5x6", graph.Grid(5, 6)},
		{"n7", graph.RandomConnected(7, 0.4, rng)},
	} {
		body := []byte(servedBody(c.g.MustWithLabels(randomBits(c.g.N(), rng)), "all-selected", rng))
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				keySink = graphKey(body)
			}
		})
	}
}

var keySink string

// randomBits draws n one-bit labels.
func randomBits(n int, rng *rand.Rand) []string {
	labels := make([]string, n)
	for u := range labels {
		labels[u] = strconv.Itoa(rng.Intn(2))
	}
	return labels
}

// servedBody is a compact verdict body with g's edges shuffled and each
// edge's endpoints in random order, as lphbench's serve-hot sends them.
func servedBody(g *graph.Graph, property string, rng *rand.Rand) string {
	return `{"graph":` + compactGraph(g, shuffledEdges(g, rng), true) + `,"property":` + strconv.Quote(property) + `}`
}
