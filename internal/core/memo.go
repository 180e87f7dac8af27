package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/cert"
	"repro/internal/simulate"
)

// Memo is a transposition table for certificate-game values: whole-game
// results keyed by (graph, identifiers, machine, level, domains, salt,
// game kind; see evalSeed), shared across evaluations — notably across
// the service layer's Prepared cache, where repeated decide/verify
// requests on the same graph short-circuit to a table lookup.
//
// Lookups are single-flight: when a key is being computed, later callers
// wait for that computation instead of duplicating it, honoring their own
// context while they wait. Errors are never cached — a failed flight is
// forgotten so the next caller retries. The table is bounded; once full
// it evicts a random completed entry per insertion (the standard lossy
// transposition-table policy: correctness never depends on an entry
// being present, eviction only costs a recomputation).
//
// Keys embed the machine's Name as a stand-in for its semantics, so two
// distinct machines sharing a Name on the same (graph, id, level,
// domains) would collide; the engine therefore never memoizes unnamed
// machines, and callers that memoize strategy games must disambiguate
// the strategies through Engine.Salt (see Engine). All catalog and
// benchmark machines in this repository carry unique names.
//
// A Memo is safe for concurrent use. The zero value is not usable; a
// nil *Memo is — every operation on nil reports a miss and computes
// directly, so plumbing can treat "no memo" uniformly.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	cap     int

	hits      uint64
	misses    uint64
	waits     uint64
	evictions uint64
}

// memoEntry is one table slot. done is closed when the computing flight
// finishes; ok reports that val holds a cached value (failed flights are
// removed from the table before done is closed, so waiters re-probe).
type memoEntry struct {
	done chan struct{}
	val  bool
	ok   bool
}

// DefaultMemoSize is the table capacity NewMemo uses for cap <= 0.
const DefaultMemoSize = 65536

// NewMemo returns a memo table holding at most cap entries; cap <= 0
// selects DefaultMemoSize.
func NewMemo(cap int) *Memo {
	if cap <= 0 {
		cap = DefaultMemoSize
	}
	return &Memo{entries: make(map[string]*memoEntry), cap: cap}
}

// MemoStats is a point-in-time snapshot of table occupancy and traffic,
// surfaced verbatim through the service layer's /v1/stats and /metrics.
type MemoStats struct {
	Capacity  int    `json:"capacity"`
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Waits     uint64 `json:"singleflight_waits"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the table counters. Safe on a nil receiver (all zero).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Capacity:  m.cap,
		Size:      len(m.entries),
		Hits:      m.hits,
		Misses:    m.misses,
		Waits:     m.waits,
		Evictions: m.evictions,
	}
}

// Do returns the memoized value for key, computing it via f on a miss.
// Concurrent callers of the same key share one flight; waiters abort
// with ctx.Err() if their context ends first (the flight itself keeps
// running for the callers that remain). A nil receiver computes
// directly. Errors from f propagate to every caller of the failed
// flight and leave the table unchanged.
func (m *Memo) Do(ctx context.Context, key string, f func() (bool, error)) (bool, error) {
	if m == nil {
		return f()
	}
	for {
		m.mu.Lock()
		if e, found := m.entries[key]; found {
			select {
			case <-e.done:
				if e.ok {
					m.hits++
					m.mu.Unlock()
					return e.val, nil
				}
				// A failed flight left a closed entry behind (it is
				// deleted before close, so this is unreachable, but a
				// stale entry must not wedge the key): fall through and
				// reclaim the slot below.
				delete(m.entries, key)
			default:
				m.waits++
				m.mu.Unlock()
				if ctx == nil {
					<-e.done
				} else {
					select {
					case <-e.done:
					case <-ctx.Done():
						return false, ctx.Err()
					}
				}
				continue // re-probe: hit on success, reclaim on failure
			}
		}
		m.misses++
		if len(m.entries) >= m.cap {
			m.evictOne()
		}
		e := &memoEntry{done: make(chan struct{})}
		m.entries[key] = e
		m.mu.Unlock()

		v, err := f()

		m.mu.Lock()
		if err != nil {
			delete(m.entries, key)
		} else {
			e.val, e.ok = v, true
		}
		m.mu.Unlock()
		close(e.done)
		return v, err
	}
}

// evictOne removes one completed entry (random map order), preferring
// never to touch in-flight computations. Called with mu held.
func (m *Memo) evictOne() {
	for k, e := range m.entries {
		select {
		case <-e.done:
			delete(m.entries, k)
			m.evictions++
			return
		default:
		}
	}
	// Every entry is in flight: allow the table to overflow transiently
	// rather than stall or drop live flights.
}

// evalSeed fingerprints everything a game's value depends on, and is
// the game's memo key: graph content (via the collision-resistant
// graph.Hash), identifier assignment, machine name, level, the per-node
// option counts of every quantifier domain, the caller's salt, and the
// game kind, so an exhaustive game and a strategy-guided one on the same
// inputs never share an entry. An empty machine name returns "" — no
// fingerprint, no memoization — and so does a strategy-guided game with
// an empty salt, since nothing in the key then names its strategies.
func evalSeed(a *Arbiter, prep *simulate.Prepared, enums []*cert.Enum, salt string, strategic bool) string {
	if a.Machine == nil || a.Machine.Name == "" || strategic && salt == "" {
		return ""
	}
	h := sha256.New()
	var buf [8]byte
	writeInt := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		h.Write([]byte(s))
	}
	writeStr(prep.Graph().Hash())
	id := prep.ID()
	writeInt(len(id))
	for _, s := range id {
		writeStr(s)
	}
	writeStr(a.Machine.Name)
	writeInt(a.Level.Alternations)
	if a.Level.FirstExistential {
		writeInt(1)
	} else {
		writeInt(0)
	}
	writeStr(salt)
	if strategic {
		h.Write([]byte{'s'})
	} else {
		h.Write([]byte{'x'})
	}
	writeInt(len(enums))
	for _, e := range enums {
		writeInt(e.Len())
		for u := 0; u < e.Len(); u++ {
			writeInt(e.NumOptions(u))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
