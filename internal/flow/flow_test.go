package flow

import (
	"math"
	"testing"

	"mtier/internal/grid"
	"mtier/internal/topo/torus"
	"mtier/internal/xrand"
)

func ring(t testing.TB, n int) *torus.Torus {
	t.Helper()
	tor, err := torus.New(grid.Shape{n})
	if err != nil {
		t.Fatal(err)
	}
	return tor
}

func cube(t testing.TB, k int) *torus.Torus {
	t.Helper()
	tor, err := torus.New(grid.Shape{k, k, k})
	if err != nil {
		t.Fatal(err)
	}
	return tor
}

func TestSingleFlowMakespan(t *testing.T) {
	tor := ring(t, 8)
	spec := &Spec{}
	spec.Add(0, 1, 1.25e9) // exactly 1 second at 10 Gbps
	res, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-1) > 1e-9 {
		t.Fatalf("makespan = %g, want 1", res.Makespan)
	}
	if res.BytesDelivered != 1.25e9 {
		t.Fatalf("bytes = %g", res.BytesDelivered)
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	// Both flows cross link 0->1 on a ring; max-min halves their rate.
	tor := ring(t, 8)
	spec := &Spec{}
	spec.Add(0, 2, 1e9)
	spec.Add(0, 2, 1e9)
	res, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 1e9 / DefaultBandwidth
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %g, want %g", res.Makespan, want)
	}
}

func TestDisjointFlowsRunInParallel(t *testing.T) {
	tor := ring(t, 8)
	spec := &Spec{}
	spec.Add(0, 1, 1e9)
	spec.Add(4, 5, 1e9)
	res, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e9 / DefaultBandwidth
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %g, want %g", res.Makespan, want)
	}
}

func TestDependencyChainSerialises(t *testing.T) {
	tor := ring(t, 8)
	spec := &Spec{}
	a := spec.Add(0, 1, 1e9)
	b := spec.Add(1, 2, 1e9, a)
	spec.Add(2, 3, 1e9, b)
	res, err := Simulate(tor, spec, Options{RecordFlowEnds: true})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * 1e9 / DefaultBandwidth
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %g, want %g", res.Makespan, want)
	}
	if !(res.FlowEnds[0] < res.FlowEnds[1] && res.FlowEnds[1] < res.FlowEnds[2]) {
		t.Fatalf("flow ends not ordered: %v", res.FlowEnds)
	}
}

func TestReduceSerialisesAtEjectionPort(t *testing.T) {
	// The paper's Reduce observation: N-to-1 traffic is bottlenecked by the
	// root's consumption port, so the topology barely matters.
	tor := cube(t, 4)
	spec := &Spec{}
	n := tor.NumEndpoints()
	for src := 1; src < n; src++ {
		spec.Add(src, 0, 1e8)
	}
	res, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n-1) * 1e8 / DefaultBandwidth
	if res.Makespan < want*(1-1e-9) {
		t.Fatalf("makespan = %g, must be >= serialised %g", res.Makespan, want)
	}
	if res.Makespan > want*1.05 {
		t.Fatalf("makespan = %g, should be close to ejection bound %g", res.Makespan, want)
	}
	if res.MaxPortUtilization < 0.95 {
		t.Fatalf("root ejection port should be ~saturated, got %g", res.MaxPortUtilization)
	}
}

func TestPortsDisabled(t *testing.T) {
	tor := ring(t, 4)
	spec := &Spec{}
	spec.Add(0, 1, 1e9)
	spec.Add(0, 1, 1e9)
	// Without ports both flows still share the 0->1 topology link.
	res, err := Simulate(tor, spec, Options{DisablePorts: true})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 1e9 / DefaultBandwidth
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %g, want %g", res.Makespan, want)
	}
	if res.MaxPortUtilization != 0 {
		t.Fatalf("port utilisation should be 0 with ports disabled")
	}
}

func TestSelfFlowCompletesInstantlyWithoutPorts(t *testing.T) {
	tor := ring(t, 4)
	spec := &Spec{}
	a := spec.Add(2, 2, 1e9)
	spec.Add(0, 1, 1e9, a)
	res, err := Simulate(tor, spec, Options{DisablePorts: true, RecordFlowEnds: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowEnds[0] != 0 {
		t.Fatalf("self flow end = %g, want 0", res.FlowEnds[0])
	}
	if res.Makespan <= 0 {
		t.Fatal("dependent flow must still run")
	}
}

func TestSelfFlowWithPortsUsesOwnPorts(t *testing.T) {
	tor := ring(t, 4)
	spec := &Spec{}
	spec.Add(2, 2, 1.25e9)
	res, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-1) > 1e-9 {
		t.Fatalf("makespan = %g, want 1", res.Makespan)
	}
}

func TestZeroByteFlowsCascade(t *testing.T) {
	tor := ring(t, 4)
	spec := &Spec{}
	a := spec.Add(0, 1, 0)
	b := spec.Add(1, 2, 0, a)
	spec.Add(2, 3, 1e9, b)
	res, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e9 / DefaultBandwidth
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %g, want %g", res.Makespan, want)
	}
}

func TestEmptySpec(t *testing.T) {
	tor := ring(t, 4)
	res, err := Simulate(tor, &Spec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Fatalf("empty workload makespan = %g", res.Makespan)
	}
}

func TestCycleDetected(t *testing.T) {
	tor := ring(t, 4)
	spec := &Spec{}
	spec.Add(0, 1, 1e9, 1)
	spec.Add(1, 2, 1e9, 0)
	if _, err := Simulate(tor, spec, Options{}); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidation(t *testing.T) {
	tor := ring(t, 4)
	bad := []*Spec{
		{Flows: []Flow{{Src: -1, Dst: 0, Bytes: 1}}},
		{Flows: []Flow{{Src: 0, Dst: 99, Bytes: 1}}},
		{Flows: []Flow{{Src: 0, Dst: 1, Bytes: -5}}},
		{Flows: []Flow{{Src: 0, Dst: 1, Bytes: math.NaN()}}},
		{Flows: []Flow{{Src: 0, Dst: 1, Bytes: 1, Deps: []int32{7}}}},
		{Flows: []Flow{{Src: 0, Dst: 1, Bytes: 1, Deps: []int32{0}}}},
	}
	for i, spec := range bad {
		if _, err := Simulate(tor, spec, Options{}); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := Simulate(tor, &Spec{}, Options{LinkBandwidth: -1}); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := Simulate(tor, &Spec{}, Options{RelEpsilon: -0.5}); err == nil {
		t.Error("negative RelEpsilon accepted")
	}
}

func TestDeterminism(t *testing.T) {
	tor := cube(t, 4)
	rng := xrand.New(99)
	spec := &Spec{}
	n := tor.NumEndpoints()
	for i := 0; i < 500; i++ {
		spec.Add(rng.Intn(n), rng.Intn(n), 1e6+float64(rng.Intn(1e6)))
	}
	a, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Epochs != b.Epochs {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestRelEpsilonBoundedError(t *testing.T) {
	tor := cube(t, 4)
	rng := xrand.New(7)
	spec := &Spec{}
	n := tor.NumEndpoints()
	for i := 0; i < 300; i++ {
		spec.Add(rng.Intn(n), rng.IntnExcept(n, rng.Intn(n)), 1e6*float64(1+rng.Intn(20)))
	}
	exact, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Simulate(tor, spec, Options{RelEpsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ratio := approx.Makespan / exact.Makespan
	if ratio < 0.95 || ratio > 1.10 {
		t.Fatalf("RelEpsilon error too large: exact %g approx %g", exact.Makespan, approx.Makespan)
	}
	// Batching usually reduces epochs; it must never blow them up.
	if approx.Epochs > exact.Epochs*2 {
		t.Fatalf("batching exploded epochs: %d vs exact %d", approx.Epochs, exact.Epochs)
	}
}

func TestFlowEndsRespectDependencies(t *testing.T) {
	tor := cube(t, 4)
	rng := xrand.New(5)
	spec := &Spec{}
	n := tor.NumEndpoints()
	for i := 0; i < 200; i++ {
		var deps []int32
		if i > 0 && rng.Float64() < 0.5 {
			deps = append(deps, int32(rng.Intn(i)))
		}
		spec.Add(rng.Intn(n), rng.Intn(n), 1e5*float64(1+rng.Intn(9)), deps...)
	}
	res, err := Simulate(tor, spec, Options{RecordFlowEnds: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range spec.Flows {
		for _, d := range f.Deps {
			if res.FlowEnds[i] < res.FlowEnds[d]-1e-12 {
				t.Fatalf("flow %d ends %g before its dependency %d at %g", i, res.FlowEnds[i], d, res.FlowEnds[d])
			}
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	tor := cube(t, 4)
	rng := xrand.New(13)
	spec := &Spec{}
	n := tor.NumEndpoints()
	for i := 0; i < 400; i++ {
		spec.Add(rng.Intn(n), rng.Intn(n), 1e6)
	}
	res, err := Simulate(tor, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLinkUtilization > 1+1e-9 || res.MaxPortUtilization > 1+1e-9 {
		t.Fatalf("utilisation over 1: link %g port %g", res.MaxLinkUtilization, res.MaxPortUtilization)
	}
	if res.MaxLinkUtilization <= 0 {
		t.Fatal("no link traffic recorded")
	}
	if res.MeanLinkUtilization > res.MaxLinkUtilization {
		t.Fatal("mean above max")
	}
}

// TestWaterfillMaxMin verifies the two defining properties of a max-min
// allocation on random workloads: feasibility (no link over capacity) and
// bottleneck optimality (every flow crosses a saturated link on which it
// has the maximal rate).
func TestWaterfillMaxMin(t *testing.T) {
	tor := cube(t, 3)
	n := tor.NumEndpoints()
	rng := xrand.New(21)
	for trial := 0; trial < 20; trial++ {
		spec := &Spec{}
		for i := 0; i < 40; i++ {
			spec.Add(rng.Intn(n), rng.IntnExcept(n, 0), 1e9)
		}
		// Odd trials exercise the reference engine, even ones the
		// incremental engine — both must produce max-min allocations.
		exact := trial%2 == 1
		s := &sim{t: tor, opt: Options{exactRecompute: exact}, cap: DefaultBandwidth, flows: spec.Flows}
		if err := s.prepare(spec); err != nil {
			t.Fatal(err)
		}
		for i := range spec.Flows {
			if s.indeg[i] == 0 {
				s.inject(int32(i), 0)
			}
		}
		if exact {
			s.waterfill()
		} else {
			s.waterfillIncremental()
		}

		// Recompute per-link loads from the frozen rates.
		load := make([]float64, s.numLinks)
		for _, id := range s.active {
			if s.rate[id] <= 0 {
				t.Fatalf("trial %d: flow %d got rate %g", trial, id, s.rate[id])
			}
			for _, l := range s.routes[id] {
				load[l] += s.rate[id]
			}
		}
		for l, v := range load {
			if v > s.cap*(1+1e-6) {
				t.Fatalf("trial %d: link %d overloaded: %g", trial, l, v)
			}
		}
		for _, id := range s.active {
			hasBottleneck := false
			for _, l := range s.routes[id] {
				if load[l] < s.cap*(1-1e-6) {
					continue // link not saturated
				}
				maxOnLink := true
				for _, other := range s.active {
					if other == id {
						continue
					}
					for _, l2 := range s.routes[other] {
						if l2 == l && s.rate[other] > s.rate[id]*(1+1e-6) {
							maxOnLink = false
						}
					}
				}
				if maxOnLink {
					hasBottleneck = true
					break
				}
			}
			if !hasBottleneck {
				t.Fatalf("trial %d: flow %d (rate %g) has no bottleneck link — not max-min", trial, id, s.rate[id])
			}
		}
	}
}

func BenchmarkSimulateUniform1k(b *testing.B) {
	tor := cube(b, 8)
	rng := xrand.New(3)
	spec := &Spec{}
	n := tor.NumEndpoints()
	for i := 0; i < 1000; i++ {
		spec.Add(rng.Intn(n), rng.Intn(n), 1e6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tor, spec, Options{RelEpsilon: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOptionsValidate pins the up-front option validation: Simulate must
// reject malformed options with a field-specific error instead of
// producing NaN rates or panicking mid-run.
func TestOptionsValidate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		opt  Options
	}{
		{"negative bandwidth", Options{LinkBandwidth: -1}},
		{"nan bandwidth", Options{LinkBandwidth: nan}},
		{"inf bandwidth", Options{LinkBandwidth: math.Inf(1)}},
		{"negative epsilon", Options{RelEpsilon: -0.01}},
		{"nan epsilon", Options{RelEpsilon: nan}},
		{"refresh above one", Options{RefreshFraction: 1.5}},
		{"negative refresh", Options{RefreshFraction: -0.1}},
		{"negative base latency", Options{LatencyBase: -1e-9}},
		{"inf hop latency", Options{LatencyPerHop: math.Inf(1)}},
	}
	tor := ring(t, 4)
	spec := &Spec{}
	spec.Add(0, 1, 1e6)
	for _, c := range cases {
		if err := c.opt.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.opt)
		}
		if _, err := Simulate(tor, spec, c.opt); err == nil {
			t.Errorf("%s: Simulate accepted %+v", c.name, c.opt)
		}
	}
	good := Options{RelEpsilon: 0.01, RefreshFraction: 1.0 / 16,
		LatencyBase: 5e-7, LatencyPerHop: 1e-6}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected valid options: %v", err)
	}
}
