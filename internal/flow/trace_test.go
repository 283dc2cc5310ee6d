package flow

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestTraceRecords(t *testing.T) {
	tor := ring(t, 8)
	spec := &Spec{}
	a := spec.Add(0, 1, 1.25e9)
	spec.Add(1, 2, 1.25e9, a)
	spec.Add(3, 4, 0) // zero-byte completes at t=0
	var sb strings.Builder
	res, err := Simulate(tor, spec, Options{Trace: &sb, LatencyBase: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("trace lines = %d, want 3: %q", len(lines), sb.String())
	}
	// Completion order: zero-byte first, then the chain.
	ends := make([]float64, 0, 3)
	for _, ln := range lines {
		f := strings.Split(ln, ",")
		if len(f) != 6 {
			t.Fatalf("bad record %q", ln)
		}
		start, err1 := strconv.ParseFloat(f[4], 64)
		end, err2 := strconv.ParseFloat(f[5], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad floats in %q", ln)
		}
		if end < start {
			t.Fatalf("end before start in %q", ln)
		}
		ends = append(ends, end)
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] < ends[i-1] {
			t.Fatal("trace not in completion order")
		}
	}
	if ends[len(ends)-1] != res.Makespan {
		t.Fatalf("last trace end %g != makespan %g", ends[len(ends)-1], res.Makespan)
	}
	// Flow 1 starts only after flow 0 completes (plus latency).
	second := strings.Split(lines[2], ",")
	start1, _ := strconv.ParseFloat(second[4], 64)
	if start1 < 1.0 {
		t.Fatalf("dependent flow started at %g, before its dependency finished", start1)
	}
}

// TestRefreshFractionEquivalence: the lazy refresh must not change
// makespans materially on a congested random workload.
func TestRefreshFractionEquivalence(t *testing.T) {
	tor := cube(t, 4)
	spec := &Spec{}
	n := tor.NumEndpoints()
	for i := 0; i < 600; i++ {
		spec.Add(i%n, (i*13+5)%n, 1e6*float64(1+i%17))
	}
	exact, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Simulate(tor, spec, Options{RefreshFraction: 1.0 / 16})
	if err != nil {
		t.Fatal(err)
	}
	ratio := lazy.Makespan / exact.Makespan
	if ratio < 0.999 || ratio > 1.05 {
		t.Fatalf("lazy refresh drifted: exact %g lazy %g", exact.Makespan, lazy.Makespan)
	}
	if lazy.Epochs >= exact.Epochs {
		t.Fatalf("lazy refresh should reduce recomputations: %d vs %d", lazy.Epochs, exact.Epochs)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n       int
	written int
}

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestTraceWriteErrorSurfaces: a failing trace writer must fail the
// simulation instead of silently truncating the CSV.
func TestTraceWriteErrorSurfaces(t *testing.T) {
	tor := ring(t, 8)
	spec := &Spec{}
	prev := int32(-1)
	for i := 0; i < 16; i++ {
		if prev < 0 {
			prev = spec.Add(0, 1, 1e6)
		} else {
			prev = spec.Add(i%8, (i+1)%8, 1e6, prev)
		}
	}
	_, err := Simulate(tor, spec, Options{Trace: &failWriter{n: 40}})
	if err == nil {
		t.Fatal("Simulate succeeded despite trace write failure")
	}
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("error does not wrap the write failure: %v", err)
	}
	// A writer with room for everything still succeeds.
	if _, err := Simulate(tor, spec, Options{Trace: &failWriter{n: 1 << 20}}); err != nil {
		t.Fatalf("unexpected error with working writer: %v", err)
	}
}
