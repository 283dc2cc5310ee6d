package flow

import (
	"container/heap"
	"math"
	"testing"

	"mtier/internal/xrand"
)

func TestLatencySingleFlow(t *testing.T) {
	tor := ring(t, 8)
	spec := &Spec{}
	spec.Add(0, 2, 1.25e9) // 2 network hops, 1 s of serialisation
	res, err := Simulate(tor, spec, Options{LatencyBase: 1e-3, LatencyPerHop: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-3 + 2e-3 + 1.0
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %.9f, want %.9f", res.Makespan, want)
	}
}

func TestLatencyScalesWithHops(t *testing.T) {
	tor := ring(t, 16)
	mk := func(dst int) float64 {
		spec := &Spec{}
		spec.Add(0, dst, 1e3)
		res, err := Simulate(tor, spec, Options{LatencyPerHop: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	near := mk(1) // 1 hop
	far := mk(8)  // 8 hops
	if far-near < 6e-3 {
		t.Fatalf("per-hop latency not applied: near %g far %g", near, far)
	}
}

func TestLatencyChainAccumulates(t *testing.T) {
	// A dependency chain pays the latency at every step — the wavefront
	// effect that favours short paths.
	tor := ring(t, 8)
	spec := &Spec{}
	prev := int32(-1)
	steps := 5
	for i := 0; i < steps; i++ {
		var deps []int32
		if prev >= 0 {
			deps = []int32{prev}
		}
		prev = spec.Add(i, i+1, 1e3, deps...)
	}
	res, err := Simulate(tor, spec, Options{LatencyBase: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	serial := float64(steps) * 1e3 / DefaultBandwidth
	want := float64(steps)*1e-3 + serial
	if math.Abs(res.Makespan-want) > 1e-6 {
		t.Fatalf("makespan = %g, want %g", res.Makespan, want)
	}
}

func TestLatencyFlowsStillShareBandwidth(t *testing.T) {
	tor := ring(t, 8)
	spec := &Spec{}
	spec.Add(0, 2, 1.25e9)
	spec.Add(0, 2, 1.25e9)
	res, err := Simulate(tor, spec, Options{LatencyBase: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Both flows activate together after the same latency, then share.
	want := 1e-6 + 2.0
	if math.Abs(res.Makespan-want) > 1e-6 {
		t.Fatalf("makespan = %g, want %g", res.Makespan, want)
	}
}

func TestLatencyStaggeredActivation(t *testing.T) {
	// Flows with different latencies must not be rate-frozen before they
	// activate: a short-latency flow gets the link to itself first.
	tor := ring(t, 8)
	spec := &Spec{}
	spec.Add(0, 1, 1.25e9) // 1 hop -> latency 1ms
	spec.Add(0, 3, 1.25e9) // 3 hops -> latency 3ms; shares only port 0
	res, err := Simulate(tor, spec, Options{LatencyPerHop: 1e-3, RecordFlowEnds: true})
	if err != nil {
		t.Fatal(err)
	}
	// Flow 0: active at 1ms. Flow 1 joins at 3ms; they share the injection
	// port. Total injected bytes 2.5e9 over a 1.25e9 port, plus staggering.
	if res.FlowEnds[0] >= res.FlowEnds[1] {
		t.Fatalf("short flow should finish first: %v", res.FlowEnds)
	}
	if res.Makespan < 2.0 || res.Makespan > 2.1 {
		t.Fatalf("makespan = %g, want ~2.0 (port-bound)", res.Makespan)
	}
}

func TestLatencyZeroByteStillInstant(t *testing.T) {
	tor := ring(t, 8)
	spec := &Spec{}
	a := spec.Add(0, 1, 0)
	spec.Add(1, 2, 1e3, a)
	res, err := Simulate(tor, spec, Options{LatencyBase: 1, RecordFlowEnds: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowEnds[0] != 0 {
		t.Fatalf("zero-byte flow should skip latency, ended %g", res.FlowEnds[0])
	}
}

func TestLatencyDeterminism(t *testing.T) {
	tor := cube(t, 3)
	spec := &Spec{}
	for i := 0; i < 50; i++ {
		spec.Add(i%27, (i*7+1)%27, 1e5)
	}
	opt := Options{LatencyBase: 1e-6, LatencyPerHop: 2e-6, RelEpsilon: 0.01}
	a, err := Simulate(tor, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tor, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatal("latency model broke determinism")
	}
}

// refPendHeap is the latency model's pending heap as container/heap
// drives it: the reference the typed pendHeap must follow pop for pop.
type refPendHeap []pendEntry

func (h refPendHeap) Len() int           { return len(h) }
func (h refPendHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refPendHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refPendHeap) Push(x any)        { *h = append(*h, x.(pendEntry)) }
func (h *refPendHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestPendHeapMatchesContainerHeap drives the typed pending heap and the
// container/heap reference through the same random pushes and pops.
// Activation times come from four values, so most pops break a tie, and
// the pop order must be identical: ties decide which flows activate
// first, and so the order flows complete in.
func TestPendHeapMatchesContainerHeap(t *testing.T) {
	times := []float64{0, 1e-6, 2e-6, 3.5e-6}
	for seed := int64(1); seed <= 25; seed++ {
		rng := xrand.New(seed)
		var got pendHeap
		var ref refPendHeap
		id := int32(0)
		pops := 0
		check := func() {
			g, r := got.pop(), heap.Pop(&ref).(pendEntry)
			if g != r {
				t.Fatalf("seed %d, pop %d: typed heap popped %+v, container/heap %+v", seed, pops, g, r)
			}
			pops++
		}
		// Alternate growing and draining phases so pops meet heaps of
		// every depth.
		for phase := 0; phase < 8; phase++ {
			pushPct := 70
			if phase%2 == 1 {
				pushPct = 30
			}
			for op := 0; op < 300; op++ {
				if len(got) > 0 && rng.Intn(100) >= pushPct {
					check()
					continue
				}
				e := pendEntry{at: times[rng.Intn(len(times))], id: id}
				id++
				got.push(e)
				heap.Push(&ref, e)
			}
		}
		for len(ref) > 0 {
			check()
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: typed heap holds %d entries after the reference drained", seed, len(got))
		}
	}
}
