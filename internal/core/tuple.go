package core

import (
	"strings"

	"repro/internal/simulate"
)

// Tuple messages. Product and Relativize run several machines in
// lockstep and pack one message per component (plus Relativize's flag
// string) into a single message per neighbour. The encoding is each
// part's byte length as a uvarint followed by the part's bytes, so any
// strings round-trip and decoding only slices the received message. The
// formal model would expand the alphabet instead, which is immaterial
// here.

// tupleLen returns the length of the encoding of parts.
func tupleLen(parts []string) int {
	n := 0
	for _, p := range parts {
		for l := len(p); l >= 0x80; l >>= 7 {
			n++
		}
		n += 1 + len(p)
	}
	return n
}

// writeTuple writes the encoding of parts to b.
func writeTuple(b *strings.Builder, parts []string) {
	for _, p := range parts {
		l := uint64(len(p))
		for l >= 0x80 {
			b.WriteByte(byte(l) | 0x80)
			l >>= 7
		}
		b.WriteByte(byte(l))
		b.WriteString(p)
	}
}

// splitTuple decodes msg into parts, whose entries then slice msg. A
// message that is not exactly writeTuple's encoding of len(parts)
// parts — "", a truncated message, a non-minimal length, trailing
// bytes — leaves every part empty: a halted neighbour sends "", and a
// malformed message carries nothing any component can read.
func splitTuple(msg string, parts []string) {
	pos := 0
	for i := range parts {
		var n uint64
		var shift uint
		for {
			if pos == len(msg) || shift > 56 {
				clear(parts)
				return
			}
			c := msg[pos]
			pos++
			n |= uint64(c&0x7f) << shift
			if c < 0x80 {
				if c == 0 && shift > 0 {
					clear(parts) // non-minimal length: not an encoder output
					return
				}
				break
			}
			shift += 7
		}
		if n > uint64(len(msg)-pos) {
			clear(parts)
			return
		}
		parts[i] = msg[pos : pos+int(n)]
		pos += int(n)
	}
	if pos != len(msg) {
		clear(parts)
	}
}

// tupleNode is one node's state in a tuple-message combinator over k
// components: the component states and every per-round buffer,
// allocated once in Init and sized to the node's degree d. Each round
// then allocates only the string holding all outgoing tuples. The
// combinator returns the same out slice every round, which
// Machine.Round's contract allows: the engines copy it before the next
// call.
type tupleNode struct {
	comps []tupleComp
	deg   int
	// rows holds the component messages: rows[i*d+j] is component i's
	// message from neighbour j, rows[(k+i)*d+j] its message to
	// neighbour j.
	rows  []string
	parts []string // one tuple: the component parts, then any extra parts
	out   []string // the tuples sent, one per neighbour
}

type tupleComp struct {
	state any
	done  int // the round the component halted in (0: still running)
}

// init allocates the buffers for comps plus extra trailing parts per
// tuple at a node of in's degree, and starts every component on in.
func (t *tupleNode) init(comps []*simulate.Machine, extra int, in simulate.Input) {
	k, d := len(comps), in.Degree
	strs := make([]string, 2*k*d+k+extra+d)
	t.comps = make([]tupleComp, k)
	t.deg = d
	t.rows = strs[:2*k*d]
	t.parts = strs[2*k*d : 2*k*d+k+extra]
	t.out = strs[2*k*d+k+extra:]
	for i, m := range comps {
		t.comps[i].state = m.Init(in)
	}
}

// split decodes neighbour j's message into t.parts and hands the
// component parts to their rows; extra parts stay in t.parts.
func (t *tupleNode) split(j int, msg string) {
	splitTuple(msg, t.parts)
	for i := range t.comps {
		t.rows[i*t.deg+j] = t.parts[i]
	}
}

// step runs component i's round on what it received and copies what it
// sends into its row (all empty once it has halted). The component is
// lent its receive row, which it may send through (see
// simulate.Machine): the next split refills the row. It reports whether
// the component halted in this very round.
func (t *tupleNode) step(i int, m *simulate.Machine, round int) (justHalted bool) {
	k, d := len(t.comps), t.deg
	send := t.rows[(k+i)*d : (k+i+1)*d]
	c := &t.comps[i]
	if c.done > 0 {
		clear(send)
		return false
	}
	out, halt := m.Round(c.state, round, t.rows[i*d:(i+1)*d:(i+1)*d])
	clear(send[copy(send, out):])
	if halt {
		c.done = round
	}
	return halt
}

// tuple loads neighbour j's component parts into t.parts.
func (t *tupleNode) tuple(j int) []string {
	k, d := len(t.comps), t.deg
	for i := 0; i < k; i++ {
		t.parts[i] = t.rows[(k+i)*d+j]
	}
	return t.parts
}

// pack encodes every neighbour's tuple — the component parts plus the
// extra parts already in t.parts — into one string, which the returned
// out slice slices per neighbour.
func (t *tupleNode) pack() []string {
	total := 0
	for j := range t.out {
		total += tupleLen(t.tuple(j))
	}
	var b strings.Builder
	b.Grow(total)
	for j := range t.out {
		writeTuple(&b, t.tuple(j))
	}
	s := b.String()
	start := 0
	for j := range t.out {
		end := start + tupleLen(t.tuple(j))
		t.out[j] = s[start:end]
		start = end
	}
	return t.out
}

// allHalted reports whether every component has halted.
func (t *tupleNode) allHalted() bool {
	for _, c := range t.comps {
		if c.done == 0 {
			return false
		}
	}
	return true
}
