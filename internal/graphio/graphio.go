// Package graphio serializes labeled graphs as JSON for the command-line
// tools and examples.
package graphio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/graph"
)

// JSON is the on-disk graph format:
//
//	{"n": 3, "edges": [[0,1],[1,2]], "labels": ["1","0","1"]}
//
// Labels may be omitted (all empty). The router does not decode this
// format: it scans request bodies for it byte by byte to key them by
// graph.HashOf (internal/router key.go), and FuzzRouteKey pins that
// scan to what Decode reads.
type JSON struct {
	N      int      `json:"n"`
	Edges  [][2]int `json:"edges"`
	Labels []string `json:"labels,omitempty"`
}

// Encode writes g to w.
func Encode(w io.Writer, g *graph.Graph) error {
	out := JSON{N: g.N(), Labels: g.Labels()}
	for _, e := range g.Edges() {
		out.Edges = append(out.Edges, [2]int{e.U, e.V})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Decode reads a graph from r. The input must be exactly one JSON graph
// object: trailing data after it is rejected, so malformed files fail
// loudly instead of being silently truncated.
func Decode(r io.Reader) (*graph.Graph, error) {
	var in JSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		// Exactly one object, as required.
	case err == nil:
		return nil, fmt.Errorf("graphio: trailing data after graph JSON")
	default:
		return nil, fmt.Errorf("graphio: trailing data after graph JSON: %w", err)
	}
	edges := make([]graph.Edge, len(in.Edges))
	for i, e := range in.Edges {
		edges[i] = graph.Edge{U: e[0], V: e[1]}
	}
	return graph.New(in.N, edges, in.Labels)
}
