package core

import (
	"strings"
	"testing"
)

// tupleOf returns the encoding of parts.
func tupleOf(parts []string) string {
	var b strings.Builder
	writeTuple(&b, parts)
	return b.String()
}

func TestTupleCodec(t *testing.T) {
	t.Parallel()
	parts := []string{"", "0,1", `quote"ms`}
	dec := make([]string, 3)
	splitTuple(tupleOf(parts), dec)
	for i := range parts {
		if dec[i] != parts[i] {
			t.Fatalf("tuple roundtrip: %v vs %v", dec, parts)
		}
	}
	empty := []string{"stale", "stale"}
	splitTuple("", empty)
	if empty[0] != "" || empty[1] != "" {
		t.Fatal("empty tuple should decode to empty strings")
	}
}

// FuzzTupleCodec checks the tuple codec of Product and Relativize.
// Round trip: any parts — cut from the fuzzed string, plus an empty
// one — decode to themselves. Malformed input: splitting any string
// into any number of parts never panics, and yields either parts that
// re-encode to exactly that string or all-empty parts; a message the
// encoder cannot produce carries nothing.
func FuzzTupleCodec(f *testing.F) {
	long := strings.Repeat("1|", 100)
	for _, seed := range []string{
		"", "0,1", `["a","b\"c"]`, "\x00\x80\xff", long,
		tupleOf([]string{"", "0,1", long}),
		"\x05ab",            // length past the end
		"\x80\x00",          // non-minimal length
		"\x01a\x01b\x00zzz", // trailing bytes
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f",
	} {
		f.Add(seed, uint16(1), uint16(3), uint8(3))
	}
	f.Fuzz(func(t *testing.T, s string, cut1, cut2 uint16, n uint8) {
		a, b := int(cut1)%(len(s)+1), int(cut2)%(len(s)+1)
		if a > b {
			a, b = b, a
		}
		parts := []string{s[:a], "", s[a:b], s[b:]}
		msg := tupleOf(parts)
		if len(msg) != tupleLen(parts) {
			t.Fatalf("tupleLen(%q) = %d, encoding has %d bytes", parts, tupleLen(parts), len(msg))
		}
		got := make([]string, len(parts))
		splitTuple(msg, got)
		for i := range parts {
			if got[i] != parts[i] {
				t.Fatalf("round trip of %q: got %q", parts, got)
			}
		}

		split := make([]string, n%8)
		for i := range split {
			split[i] = "stale"
		}
		splitTuple(s, split)
		if tupleOf(split) == s {
			return
		}
		for i, p := range split {
			if p != "" {
				t.Fatalf("malformed %q into %d parts: part %d = %q, want all empty", s, len(split), i, p)
			}
		}
	})
}
