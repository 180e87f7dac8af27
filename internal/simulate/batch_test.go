package simulate

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// certBroadcast exchanges certificates with neighbors and accepts iff
// every received certificate equals the node's own first certificate. It
// makes the Result's bit accounting depend on the certificate list, so
// byte-identity between prepared and fresh runs is meaningful.
func certBroadcast() *Machine {
	type st struct {
		deg  int
		cert string
		ok   bool
	}
	return &Machine{
		Name: "cert-broadcast",
		Init: func(in Input) any {
			s := &st{deg: in.Degree, ok: true}
			if len(in.Certs) > 0 {
				s.cert = in.Certs[0]
			}
			return s
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*st)
			if round == 1 {
				out := make([]string, s.deg)
				for i := range out {
					out[i] = s.cert
				}
				return out, false
			}
			for _, m := range recv {
				if m != s.cert {
					s.ok = false
				}
			}
			return nil, true
		},
		Output: func(sv any) string {
			if sv.(*st).ok {
				return "1"
			}
			return "0"
		},
	}
}

// batchCerts enumerates all single-bit certificate lists for n nodes.
func batchCerts(n int) [][][]string {
	var out [][][]string
	for mask := 0; mask < 1<<uint(n); mask++ {
		certs := make([][]string, n)
		for u := 0; u < n; u++ {
			if mask&(1<<uint(u)) != 0 {
				certs[u] = []string{"1"}
			} else {
				certs[u] = []string{"0"}
			}
		}
		out = append(out, certs)
	}
	return out
}

// TestPreparedMatchesRun: reusing one Prepared instance across differing
// certificate lists must produce byte-identical Results to fresh Run
// calls.
func TestPreparedMatchesRun(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(5).MustWithLabels([]string{"1", "1", "0", "1", "1"})
	id := graph.SmallLocallyUnique(g, 1)
	p, err := Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	m := certBroadcast()
	for _, certs := range batchCerts(g.N()) {
		want, err := Run(m, g, id, certs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(m, certs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("certs=%v: prepared %+v, fresh %+v", certs, got, want)
		}
	}
}

// TestBatchMatchesRun: the scheduler must return, for every job and every
// pool size, exactly the Result a fresh simulate.Run produces — same
// Outputs, Rounds, RecvBits, and SentBits. Running under -race
// additionally checks the worker pool.
func TestBatchMatchesRun(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(6).MustWithLabels([]string{"1", "0", "1", "1", "0", "1"})
	id := graph.SmallLocallyUnique(g, 1)
	p, err := Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, certs := range batchCerts(g.N()) {
		jobs = append(jobs, Job{Machine: certBroadcast(), Certs: certs})
	}
	// Mixed machines in one batch, including cert-free ones.
	jobs = append(jobs,
		Job{Machine: allSelected()},
		Job{Machine: broadcastLabelEq()},
	)
	want := make([]*Result, len(jobs))
	for i, j := range jobs {
		want[i], err = Run(j.Machine, g, id, j.Certs, Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 3, 16} {
		got, err := p.Batch(jobs, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range jobs {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("workers=%d job %d: batch %+v, fresh %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestBatchCancellation: a cancelled context stops the batch and is
// reported; jobs not started stay nil.
func TestBatchCancellation(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(4)
	id := graph.SmallLocallyUnique(g, 1)
	p, err := Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{Machine: allSelected()}
	}
	for _, workers := range []int{1, 4} {
		results, err := p.Batch(jobs, BatchOptions{Workers: workers, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// With a pre-cancelled context no worker should get past its
		// first poll; at least the tail of the batch must be untouched.
		if results[len(results)-1] != nil {
			t.Fatalf("workers=%d: cancelled batch still ran the last job", workers)
		}
	}
}

// TestBatchError: a non-terminating job fails with its index, while the
// other jobs' results are still populated.
func TestBatchError(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(4)
	id := graph.SmallLocallyUnique(g, 1)
	p, err := Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	spin := &Machine{
		Name:   "spin",
		Init:   func(Input) any { return nil },
		Round:  func(any, int, []string) ([]string, bool) { return nil, false },
		Output: func(any) string { return "1" },
	}
	jobs := []Job{
		{Machine: allSelected()},
		{Machine: spin},
		{Machine: allSelected()},
	}
	results, err := p.Batch(jobs, BatchOptions{Workers: 2, Run: Options{MaxRounds: 4}})
	if !errors.Is(err, ErrDidNotTerminate) {
		t.Fatalf("err = %v, want ErrDidNotTerminate", err)
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("successful jobs should keep their results")
	}
	if results[1] != nil {
		t.Fatal("failed job should have a nil result")
	}
}
