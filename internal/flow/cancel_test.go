package flow

import (
	"context"
	"errors"
	"testing"
)

func multiEpochSpec() *Spec {
	// Distinct flow sizes on disjoint links: each completion ends an
	// epoch, so the run spans several epochs for cancellation to land in.
	spec := &Spec{}
	spec.Add(0, 1, 1e9)
	spec.Add(2, 3, 2e9)
	spec.Add(4, 5, 3e9)
	spec.Add(6, 7, 4e9)
	return spec
}

// TestSimulateContextBackground: a background context must not change
// the result — the cancellation fast path is a nil check.
func TestSimulateContextBackground(t *testing.T) {
	tor := ring(t, 8)
	want, err := Simulate(tor, multiEpochSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateContext(context.Background(), tor, multiEpochSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.Epochs != want.Epochs {
		t.Fatalf("background-context run diverged: makespan %g/%g, epochs %d/%d",
			got.Makespan, want.Makespan, got.Epochs, want.Epochs)
	}
}

// TestSimulateContextPreCanceled: an already-canceled context aborts
// before any epoch runs, and the error unwraps to context.Canceled.
func TestSimulateContextPreCanceled(t *testing.T) {
	tor := ring(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SimulateContext(ctx, tor, multiEpochSpec(), Options{})
	if err == nil {
		t.Fatal("want a cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, Canceled) = false: %v", err)
	}
	if res != nil {
		t.Fatalf("canceled run still returned a result: %+v", res)
	}
}

// cancelWriter is a per-flow trace writer that cancels the run once it
// has received n records: a deterministic in-run trigger.
type cancelWriter struct {
	n, records int
	cancel     func()
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	w.records++
	if w.records == w.n {
		w.cancel()
	}
	return len(p), nil
}

// TestSimulateContextCancelMidRun: canceling from inside the run aborts
// at the next epoch boundary. multiEpochSpec completes one flow per
// epoch, so canceling at the second completion record must stop the
// run before a third flow finishes.
func TestSimulateContextCancelMidRun(t *testing.T) {
	tor := ring(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelWriter{n: 2, cancel: cancel}
	_, err := SimulateContext(ctx, tor, multiEpochSpec(), Options{Trace: w})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, Canceled) = false: %v", err)
	}
	if w.records != 2 {
		t.Fatalf("run completed %d flows after canceling at the second, want exactly 2", w.records)
	}
}

// TestSimulateContextDeadline: an expired deadline surfaces as
// context.DeadlineExceeded — what the per-cell CellTimeout relies on.
func TestSimulateContextDeadline(t *testing.T) {
	tor := ring(t, 8)
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, err := SimulateContext(ctx, tor, multiEpochSpec(), Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, DeadlineExceeded) = false: %v", err)
	}
}
