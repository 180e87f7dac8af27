package router

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"unicode/utf8"

	"repro/internal/graph"
)

// affinity computes the routing key and write-ness of a request from
// its method, path, headers, and (already buffered) body.
//
// The key is what Prepared-cache affinity hangs on: every request
// carrying the same canonical graph must land on the same node, so the
// key for the graph routes is the graph's canonical hash. One scan of
// the body finds it (see scan): the router never runs the node's strict
// DecodeRequest (validation is the node's job, and a router that
// rejected bodies the node would accept could strand valid work), and
// it builds no graph.Graph. A body outside the scan's subset — or one
// it cannot make sense of at all — hashes its raw bytes instead: still
// deterministic, still balanced, and the node's own verdict (a 400, or
// a correct answer from a cold cache) comes back through the usual
// proxy path.
//
// Write-ness mirrors the node's drain contract: the routes a draining
// lphd sheds with 503 are writes (and skip draining members), while
// reads — including DELETE /v1/jobs/{id}, which a draining node still
// honors — may use them.
func affinity(r *http.Request, body []byte) (key string, write bool) {
	if r.Method != http.MethodPost {
		// Reads and DELETEs: no body-derived affinity. Job-id routes are
		// bound upstream in serveProxy before affinity is consulted.
		return "", false
	}
	switch r.URL.Path {
	case "/v1/decide", "/v1/verify", "/v1/reduce":
		return graphKey(body), true
	case "/v1/batch":
		return batchKey(body), true
	case "/v1/game":
		return gameKey(body), true
	case "/v1/jobs":
		// A keyed submission routes by its Idempotency-Key, so a retry —
		// even one the client re-sends after a shed — reaches the node
		// holding the original admission and dedups there.
		if k := r.Header.Get("Idempotency-Key"); k != "" {
			return "idem/" + k, true
		}
		return bodyKey(body), true
	case "/v1/admin/drain":
		// Draining through the router is pool-wide ambiguity the roll
		// endpoint exists to resolve; route it like an unkeyed write.
		return "", true
	}
	return "", true
}

// graphKey keys a single-graph request by graph.HashOf of its "graph"
// member, read straight from the body bytes — the value the node's
// Prepared cache is keyed by, since the node's graph.Graph.Hash is
// HashOf too. Affinity therefore holds across every serialization of
// the same graph (member order, whitespace, edge order, flipped
// endpoints, duplicate edges, omitted empty labels). A body the scan
// declines keys on its bytes.
func graphKey(body []byte) string {
	p, ok := scan(body)
	if !ok || p.graph == "" {
		return bodyKey(body)
	}
	return "graph/" + p.graph
}

// batchKey keys a batch by the hash of its graphs' canonical hashes:
// the same instance list in the same order lands on the same node and
// reuses its warm Prepared entries.
func batchKey(body []byte) string {
	p, ok := scan(body)
	if !ok || p.batch == "" {
		return bodyKey(body)
	}
	return "batch/" + p.batch
}

// gameKey keys a catalog-game request by the game name: the verdict
// memo on the node is warm per game, not per body.
func gameKey(body []byte) string {
	p, ok := scan(body)
	if !ok || p.game == "" {
		return bodyKey(body)
	}
	return "game/" + p.game
}

// bodyKey is the fallback affinity: the raw body bytes. Byte-identical
// retries still stick to one node (and hit its request-level memo).
func bodyKey(body []byte) string {
	sum := sha256.Sum256(body)
	return "body/" + hex.EncodeToString(sum[:])
}

// probe is the routing identity scan reads from a request body.
type probe struct {
	graph string // HashOf the "graph" member; "" when absent
	batch string // hex SHA-256 over the hashes of the "graphs" elements; "" when absent or empty
	game  string // the "game" member; "" when absent
}

// scan reads a request body's routing identity in one pass over its
// bytes, without encoding/json. It accepts a subset of JSON: one
// top-level object whose "graph" member (and each element of its
// "graphs" array) is a valid graph in the graphio format, whose "game"
// member is a string, and whose other members are strings or
// non-negative integers. Within a graph object n, edges and labels may
// come in any order, edges may repeat or list their endpoints either
// way round, edges may be null (graphio.Encode writes a one-node graph
// so) and labels may be omitted. ok is false for everything else:
// string escapes, nested values in other members, null elsewhere,
// booleans, fractions, exponents, signs, leading zeros, duplicate,
// case-variant or non-ASCII member names, graph members other than the
// three, trailing data, and any graph graph.New would reject. A
// declined body keys on its bytes, so there is no second decode path:
// whatever the scan accepts, encoding/json reads the same way, which
// FuzzRouteKey checks against the full decode.
func scan(body []byte) (p probe, ok bool) {
	s := scanner{b: body}
	var seenGraph, seenGraphs, seenGame bool
	ok = s.consume('{') && s.list('}', func() bool {
		name, ok := s.name()
		if !ok || !s.consume(':') {
			return false
		}
		switch {
		case string(name) == "graph" && !seenGraph:
			seenGraph = true
			p.graph, ok = s.graph()
		case string(name) == "graphs" && !seenGraphs:
			seenGraphs = true
			p.batch, ok = s.graphs()
		case string(name) == "game" && !seenGame:
			seenGame = true
			var g []byte
			g, ok = s.str()
			ok = ok && utf8.Valid(g)
			p.game = string(g)
		default:
			// encoding/json matches member names case-insensitively, so
			// "Graph" would be read as the graph; repeats overwrite.
			for _, known := range [...]string{"graph", "graphs", "game"} {
				if bytes.EqualFold(name, []byte(known)) {
					return false
				}
			}
			ok = s.scalar()
		}
		return ok
	})
	s.ws()
	return p, ok && s.i == len(s.b)
}

// scanner is a cursor over a request body. Its arrays hold a small
// graph's edges, label spans and union-find forest off the heap.
type scanner struct {
	b []byte
	i int

	edges  [64]graph.Edge
	labels [64][]byte
	parent [64]int32
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// list walks the elements of an object or array whose opening bracket
// is consumed, up to the closing end, calling elem on each; it reports
// whether every element was accepted and the separators were valid.
func (s *scanner) list(end byte, elem func() bool) bool {
	if s.consume(end) {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.consume(end) {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// null skips a null literal, reporting whether there was one.
func (s *scanner) null() bool {
	s.ws()
	if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += len("null")
		return true
	}
	return false
}

// str reads a string without escapes or control characters and returns
// its bytes, which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// name reads a member name, which must be ASCII: encoding/json also
// folds some non-ASCII letters onto ASCII ones (U+017F onto 's'), so a
// non-ASCII name could be read as a member the scan does not see.
func (s *scanner) name() ([]byte, bool) {
	b, ok := s.str()
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return nil, false
		}
	}
	return b, ok
}

// maxInt bounds every integer the scan reads; larger values decline.
const maxInt = 1<<31 - 1

// uint reads a non-negative integer without sign, fraction, exponent or
// leading zero.
func (s *scanner) uint() (int, bool) {
	s.ws()
	start, v := s.i, 0
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		if v = v*10 + int(s.b[s.i]-'0'); v > maxInt {
			return 0, false
		}
	}
	if digits := s.i - start; digits == 0 || digits > 1 && s.b[start] == '0' {
		return 0, false
	}
	if s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		return 0, false
	}
	return v, true
}

// scalar skips a member value, which must be a string or an integer.
func (s *scanner) scalar() bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == '"' {
		_, ok := s.str()
		return ok
	}
	_, ok := s.uint()
	return ok
}

// graph reads one graph object and returns its graph.HashOf, declining
// on anything graph.New would reject.
func (s *scanner) graph() (string, bool) {
	n, edges, labels := -1, s.edges[:0], s.labels[:0]
	var seenEdges, seenLabels bool
	ok := s.consume('{') && s.list('}', func() bool {
		name, ok := s.name()
		if !ok || !s.consume(':') {
			return false
		}
		switch {
		case string(name) == "n" && n < 0:
			n, ok = s.uint()
		case string(name) == "edges" && !seenEdges:
			seenEdges = true
			if s.null() {
				break // graphio.Encode writes a graph without edges this way
			}
			ok = s.consume('[') && s.list(']', func() bool {
				if !s.consume('[') {
					return false
				}
				u, ok := s.uint()
				if !ok || !s.consume(',') {
					return false
				}
				v, ok := s.uint()
				edges = append(edges, graph.Edge{U: u, V: v})
				return ok && s.consume(']')
			})
		case string(name) == "labels" && !seenLabels:
			seenLabels = true
			ok = s.consume('[') && s.list(']', func() bool {
				l, ok := s.str()
				labels = append(labels, l)
				return ok && graph.IsBitString(l)
			})
		default:
			// Unknown, repeated or case-variant members.
			return false
		}
		return ok
	})
	// graph.New's checks, the edge count first: a connected graph has at
	// least n-1 edges, which bounds the forest below by the body size.
	if !ok || n < 1 || seenLabels && len(labels) != n || len(edges) < n-1 {
		return "", false
	}
	for _, e := range edges {
		if e.U >= n || e.V >= n || e.U == e.V {
			return "", false
		}
	}
	if !s.connected(n, edges) {
		return "", false
	}
	return graph.HashOf(n, edges, labels), true
}

// connected reports whether the edges, their endpoints already checked
// to be in range, connect all n nodes: union-find with path halving.
func (s *scanner) connected(n int, edges []graph.Edge) bool {
	parent := s.parent[:0]
	if n > len(s.parent) {
		parent = make([]int32, 0, n)
	}
	for u := range n {
		parent = append(parent, int32(u))
	}
	find := func(u int32) int32 {
		for parent[u] != u {
			parent[u] = parent[parent[u]]
			u = parent[u]
		}
		return u
	}
	components := n
	for _, e := range edges {
		if a, b := find(int32(e.U)), find(int32(e.V)); a != b {
			parent[a] = b
			components--
		}
	}
	return components == 1
}

// graphs reads the "graphs" array and returns the hex SHA-256 over its
// elements' hashes in order, or "" for an empty array.
func (s *scanner) graphs() (string, bool) {
	h := sha256.New()
	count := 0
	ok := s.consume('[') && s.list(']', func() bool {
		gh, ok := s.graph()
		_, _ = h.Write([]byte(gh))
		count++
		return ok
	})
	if !ok || count == 0 {
		return "", ok
	}
	return hex.EncodeToString(h.Sum(nil)), true
}
