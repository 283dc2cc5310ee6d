package flow

import (
	"math"
	"strings"
	"testing"

	"mtier/internal/fault"
	"mtier/internal/topo"
	"mtier/internal/xrand"
)

// wrap returns the topology behind an empty fault set, which gives the
// engine the Rerouter it needs for dynamic fault events without any
// static damage.
func wrap(t testing.TB, base topo.Topology) *fault.Degraded {
	t.Helper()
	set, err := fault.Generate(base, fault.Spec{Model: fault.Random})
	if err != nil {
		t.Fatal(err)
	}
	return fault.Wrap(base, set, nil)
}

func TestFaultEventsRequireRerouter(t *testing.T) {
	tor := ring(t, 8)
	spec := &Spec{}
	spec.Add(0, 1, 1e6)
	_, err := Simulate(tor, spec, Options{FaultEvents: []FaultEvent{{Time: 0.1, Links: []int32{0}}}})
	if err == nil || !strings.Contains(err.Error(), "reroute") {
		t.Fatalf("bare topology accepted fault events: %v", err)
	}
}

func TestFaultEventValidation(t *testing.T) {
	tor := wrap(t, ring(t, 8))
	spec := &Spec{}
	spec.Add(0, 1, 1e6)
	// Out-of-order events fail Validate.
	_, err := Simulate(tor, spec, Options{FaultEvents: []FaultEvent{{Time: 2}, {Time: 1}}})
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("out-of-order events accepted: %v", err)
	}
	// Negative times fail Validate.
	_, err = Simulate(tor, spec, Options{FaultEvents: []FaultEvent{{Time: -1}}})
	if err == nil || !strings.Contains(err.Error(), "invalid time") {
		t.Fatalf("negative event time accepted: %v", err)
	}
	// Out-of-range link ids fail prepare.
	_, err = Simulate(tor, spec, Options{FaultEvents: []FaultEvent{{Time: 1, Links: []int32{9999}}}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range link accepted: %v", err)
	}
}

// TestFaultEventReroutesMidFlight: killing a link under an active flow
// must detour it, deliver every byte, and lengthen the makespan over the
// pristine run.
func TestFaultEventReroutesMidFlight(t *testing.T) {
	base := ring(t, 8)
	d := wrap(t, base)
	spec := &Spec{}
	spec.Add(0, 2, 1.25e9) // 1 second pristine (2 hops, full bandwidth)

	pristine, err := Simulate(d, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the first link of the route halfway through the transfer.
	route := topo.Route(base, 0, 2)
	res, err := Simulate(d, spec, Options{
		FaultEvents: []FaultEvent{{Time: pristine.Makespan / 2, Links: []int32{route[0]}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReroutedFlows != 1 {
		t.Fatalf("rerouted %d flows, want 1", res.ReroutedFlows)
	}
	if res.DisconnectedFlows != 0 || res.LostBytes != 0 {
		t.Fatalf("flow lost: %d disconnected, %g bytes", res.DisconnectedFlows, res.LostBytes)
	}
	if res.BytesDelivered != pristine.BytesDelivered {
		t.Fatalf("delivered %g bytes, want %g", res.BytesDelivered, pristine.BytesDelivered)
	}
	// A ring detour goes the long way round; the solo flow still runs at
	// full bandwidth (pure bandwidth model), but its hop-bytes grow with
	// the longer final route.
	if res.Makespan < pristine.Makespan {
		t.Fatalf("makespan %g shrank below pristine %g", res.Makespan, pristine.Makespan)
	}
	if res.HopBytes <= pristine.HopBytes {
		t.Fatalf("hop-bytes %g did not grow over pristine %g after the detour", res.HopBytes, pristine.HopBytes)
	}
}

// TestFaultEventDisconnectsMidFlight: when the kill severs the pair
// entirely, the flow is lost with its undelivered bytes and the DAG
// still completes.
func TestFaultEventDisconnectsMidFlight(t *testing.T) {
	base := ring(t, 4)
	d := wrap(t, base)
	spec := &Spec{}
	f0 := spec.Add(0, 1, 1.25e9)
	spec.Add(2, 3, 1.25e9, f0) // dependent: must still run after the loss

	// Kill every link touching vertex 1 at t=0.5: pair (0,1) is severed.
	var dead []int32
	for id, ln := range base.Links() {
		if ln.From == 1 || ln.To == 1 {
			dead = append(dead, int32(id))
		}
	}
	res, err := Simulate(d, spec, Options{FaultEvents: []FaultEvent{{Time: 0.5, Links: dead}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DisconnectedFlows != 1 {
		t.Fatalf("disconnected %d flows, want 1", res.DisconnectedFlows)
	}
	// Half the transfer was delivered before the cut; the rest is lost.
	if res.LostBytes <= 0 || res.LostBytes >= 1.25e9 {
		t.Fatalf("lost %g bytes, want in (0, 1.25e9)", res.LostBytes)
	}
	if math.Abs(res.BytesDelivered-(2*1.25e9-res.LostBytes)) > 1 {
		t.Fatalf("delivered %g, want total minus lost", res.BytesDelivered)
	}
	// The dependent flow ran to completion after its parent was lost.
	if res.Makespan <= 1 {
		t.Fatalf("makespan %g: dependent flow did not run", res.Makespan)
	}
}

// TestFaultEventBeforeInjection: links killed at t=0 are dead before the
// first injection, so the initial wave routes around them without being
// counted as rerouted.
func TestFaultEventBeforeInjection(t *testing.T) {
	base := ring(t, 8)
	d := wrap(t, base)
	spec := &Spec{}
	spec.Add(0, 2, 1.25e9)
	route := topo.Route(base, 0, 2)
	res, err := Simulate(d, spec, Options{
		FaultEvents: []FaultEvent{{Time: 0, Links: []int32{route[0]}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DisconnectedFlows != 0 {
		t.Fatalf("flow lost on a ring with one dead link")
	}
	if res.ReroutedFlows != 1 {
		t.Fatalf("rerouted %d flows, want 1 (injection saw the dead link)", res.ReroutedFlows)
	}
	if res.BytesDelivered != 1.25e9 {
		t.Fatalf("delivered %g bytes", res.BytesDelivered)
	}
}

// TestFaultEventPendingFlowRerouted: a flow waiting out its latency when
// its route dies must be detoured before activation.
func TestFaultEventPendingFlowRerouted(t *testing.T) {
	base := ring(t, 8)
	d := wrap(t, base)
	spec := &Spec{}
	spec.Add(0, 2, 1.25e9)
	route := topo.Route(base, 0, 2)
	res, err := Simulate(d, spec, Options{
		LatencyBase: 0.25,
		FaultEvents: []FaultEvent{{Time: 0.1, Links: []int32{route[0]}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReroutedFlows != 1 || res.DisconnectedFlows != 0 {
		t.Fatalf("rerouted=%d disconnected=%d, want 1, 0", res.ReroutedFlows, res.DisconnectedFlows)
	}
	if res.BytesDelivered != 1.25e9 {
		t.Fatalf("delivered %g bytes", res.BytesDelivered)
	}
}

// TestStaticFaultsLoseFlowsAtInjection: flows whose pair is disconnected
// by the static fault set are dropped at injection and release their
// dependents.
func TestStaticFaultsLoseFlowsAtInjection(t *testing.T) {
	base := cube(t, 3)
	set, err := fault.Generate(base, fault.Spec{Model: fault.Random, EndpointFraction: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := fault.Wrap(base, set, nil)
	var deadEp int32 = -1
	for v := 0; v < base.NumEndpoints(); v++ {
		if set.VertexDown(int32(v)) {
			deadEp = int32(v)
			break
		}
	}
	if deadEp < 0 {
		t.Fatal("no endpoint failed")
	}
	alive := (deadEp + 1) % int32(base.NumEndpoints())
	for set.VertexDown(alive) {
		alive = (alive + 1) % int32(base.NumEndpoints())
	}
	alive2 := (alive + 1) % int32(base.NumEndpoints())
	for set.VertexDown(alive2) || alive2 == deadEp {
		alive2 = (alive2 + 1) % int32(base.NumEndpoints())
	}
	spec := &Spec{}
	f0 := spec.Add(int(alive), int(deadEp), 1e6) // lost
	spec.Add(int(alive), int(alive2), 1e6, f0)   // depends on the lost flow
	res, err := Simulate(d, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DisconnectedFlows != 1 || res.LostBytes != 1e6 {
		t.Fatalf("disconnected=%d lost=%g, want 1, 1e6", res.DisconnectedFlows, res.LostBytes)
	}
	if res.BytesDelivered != 1e6 {
		t.Fatalf("delivered %g, want the surviving flow's 1e6", res.BytesDelivered)
	}
}

// TestFaultIncrementalMatchesExact: the incremental engine's
// dirty-component repair must stay bit-identical to the reference full
// waterfill through fault events, reroutes and losses.
func TestFaultIncrementalMatchesExact(t *testing.T) {
	base := cube(t, 3)
	d := wrap(t, base)
	rng := xrand.New(99)
	n := base.NumEndpoints()
	spec := &Spec{}
	var prev int32 = -1
	for i := 0; i < 120; i++ {
		src := rng.Intn(n)
		dst := rng.IntnExcept(n, src)
		if prev >= 0 && i%3 == 0 {
			prev = spec.Add(src, dst, float64(1+rng.Intn(4))*2.5e8, prev)
		} else {
			prev = spec.Add(src, dst, float64(1+rng.Intn(4))*2.5e8)
		}
	}
	// Three fault waves killing random links mid-run.
	var events []FaultEvent
	for i, tm := range []float64{0.2, 0.9, 2.1} {
		var links []int32
		for j := 0; j < 6; j++ {
			links = append(links, int32(rng.Intn(base.NumLinks())))
		}
		events = append(events, FaultEvent{Time: tm, Links: links})
		_ = i
	}
	run := func(exact bool) *Result {
		res, err := Simulate(d, spec, Options{exactRecompute: exact, RecordFlowEnds: true, FaultEvents: events})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, exact := run(false), run(true)
	if inc.Makespan != exact.Makespan {
		t.Fatalf("makespans differ: incremental %g vs exact %g", inc.Makespan, exact.Makespan)
	}
	if inc.ReroutedFlows != exact.ReroutedFlows || inc.DisconnectedFlows != exact.DisconnectedFlows || inc.LostBytes != exact.LostBytes {
		t.Fatalf("fault accounting differs: %d/%d/%g vs %d/%d/%g",
			inc.ReroutedFlows, inc.DisconnectedFlows, inc.LostBytes,
			exact.ReroutedFlows, exact.DisconnectedFlows, exact.LostBytes)
	}
	for i := range inc.FlowEnds {
		if inc.FlowEnds[i] != exact.FlowEnds[i] {
			t.Fatalf("flow %d ends differ: %g vs %g", i, inc.FlowEnds[i], exact.FlowEnds[i])
		}
	}
}

// TestFaultEventsDeterministic: the same degraded run twice must be
// bit-identical (detour caches and reroute order are deterministic).
func TestFaultEventsDeterministic(t *testing.T) {
	base := cube(t, 3)
	d := wrap(t, base)
	rng := xrand.New(5)
	n := base.NumEndpoints()
	spec := &Spec{}
	for i := 0; i < 60; i++ {
		spec.Add(rng.Intn(n), rng.IntnExcept(n, 0), 1e8)
	}
	events := []FaultEvent{{Time: 0.01, Links: []int32{0, 5, 9}}, {Time: 0.05, Links: []int32{14, 2}}}
	run := func() *Result {
		res, err := Simulate(d, spec, Options{RecordFlowEnds: true, FaultEvents: events})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.ReroutedFlows != b.ReroutedFlows || a.DisconnectedFlows != b.DisconnectedFlows {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
	for i := range a.FlowEnds {
		if a.FlowEnds[i] != b.FlowEnds[i] {
			t.Fatalf("flow %d ends differ across identical runs", i)
		}
	}
}
