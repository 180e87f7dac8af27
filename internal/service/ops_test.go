package service_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/search"
	"repro/internal/service"
)

// cancelAfterFirstCheck is a context that is live on its first Err call
// and cancelled from the second on: it passes Game's up-front check and
// is cancelled by the time the minimax searches poll it.
type cancelAfterFirstCheck struct {
	context.Context
	calls atomic.Int64
}

func (c *cancelAfterFirstCheck) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestGameCancelledMidSearch: a game cancelled after it started returns
// the cancellation error, never the void verdicts of the aborted
// searches (Figure 1b used to come back false with a nil error).
func TestGameCancelledMidSearch(t *testing.T) {
	for _, o := range []search.Options{search.Sequential(), search.Parallel(4)} {
		o.Ctx = &cancelAfterFirstCheck{Context: context.Background()}
		res, err := service.Game("figure1", o)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: Game = %+v, %v; want context.Canceled", o.Workers, res, err)
		}
	}
}
