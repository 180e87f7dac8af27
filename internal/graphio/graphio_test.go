package graphio

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestRoundTrip(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(4).MustWithLabels([]string{"1", "0", "11", ""})
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatalf("round trip changed the graph: %v vs %v", g, h)
	}
}

func TestDecodeValidation(t *testing.T) {
	t.Parallel()
	cases := []string{
		`{"n":0}`,            // empty
		`{"n":2,"edges":[]}`, // disconnected
		`{"n":2,"edges":[[0,1]],"labels":["2",""]}`, // bad label
		`{"n":2,"edges":[[0,5]]}`,                   // out of range
		`not json`,
		`{"n":2,"edges":[[0,1]]} trailing garbage`, // data after the object
		`{"n":2,"edges":[[0,1]]}{"n":1}`,           // second object
	}
	for _, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", in)
		}
	}
}

func TestDecodeMinimal(t *testing.T) {
	t.Parallel()
	g, err := Decode(strings.NewReader(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1 || g.Label(0) != "" {
		t.Fatal("minimal graph wrong")
	}
}

// TestDecodeHugeNAllocatesLittle: a body of a few bytes that claims a
// huge node count and has too few edges to connect it is refused as
// not connected before anything that grows with the count is
// allocated.
//
// Not parallel: TotalAlloc counts the whole process's allocations.
func TestDecodeHugeNAllocatesLittle(t *testing.T) {
	const budget = 16 << 10 // bytes: the JSON decoder's own buffers and type cache
	for _, in := range []string{`{"n":1000000}`, `{"n":2147483647}`, `{"n":1000000,"edges":[[0,1]]}`} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, graph.ErrNotConnected) {
			t.Fatalf("Decode(%q) = %v, want %v", in, err, graph.ErrNotConnected)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("Decode(%q) allocated %d bytes, want at most %d", in, got, budget)
		}
	}
}
