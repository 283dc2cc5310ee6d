package mtier_test

import (
	"testing"

	"mtier"
)

// TestFacadeEndToEnd exercises the public API exactly as the package doc
// advertises it.
func TestFacadeEndToEnd(t *testing.T) {
	machine, err := mtier.Build(mtier.TopoSpec{Kind: mtier.NestGHC, Endpoints: 512, T: 2, U: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := mtier.GenerateWorkload(mtier.AllReduce, mtier.WorkloadParams{
		Tasks: 512, MsgBytes: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mtier.Simulate(machine, spec, mtier.SimOptions{RelEpsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %g", res.Makespan)
	}
}

func TestFacadePlacement(t *testing.T) {
	machine, err := mtier.Build(mtier.TopoSpec{Kind: mtier.Fattree, Endpoints: 512})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := mtier.GenerateWorkload(mtier.MapReduce, mtier.WorkloadParams{
		Tasks: 64, MsgBytes: 1e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	placed, err := mtier.Place(spec, mtier.PlaceStrided, 64, machine.NumEndpoints(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mtier.Simulate(machine, placed, mtier.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("empty result")
	}
}

// TestFacadePlaceKeepsStart checks that placement keeps each flow's
// release time: a flow released at 0.5 s still starts at 0.5 s once its
// tasks are mapped onto endpoints.
func TestFacadePlaceKeepsStart(t *testing.T) {
	spec := &mtier.FlowSpec{}
	spec.AddAt(0, 1, 1e6, 0.5)
	placed, err := mtier.Place(spec, mtier.PlaceStrided, 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f := placed.Flows[0]; f.Start != 0.5 || f.Src != 0 || f.Dst != 32 || f.Bytes != 1e6 {
		t.Fatalf("placed flow %+v, want 0 -> 32, 1e6 bytes, Start 0.5", f)
	}
}

func TestFacadeMetricsAndCost(t *testing.T) {
	machine, err := mtier.Build(mtier.TopoSpec{Kind: mtier.Torus3D, Endpoints: 512})
	if err != nil {
		t.Fatal(err)
	}
	s := mtier.Distances(machine)
	if s.Mean <= 0 || s.Max <= 0 {
		t.Fatalf("bad stats: %+v", s)
	}
	if err := mtier.DefaultCostModel().Validate(); err != nil {
		t.Fatal(err)
	}
	ll := mtier.LinkLoads(machine)
	if ll.MaxLoad <= 0 || ll.Throughput <= 0 || ll.Throughput > 1 {
		t.Fatalf("bad link loads: %+v", ll)
	}
}

func TestFacadeEnergyAndAdaptive(t *testing.T) {
	machine, err := mtier.Build(mtier.TopoSpec{Kind: mtier.GHCFlat, Endpoints: 256})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := mtier.GenerateWorkload(mtier.UnstructuredApp, mtier.WorkloadParams{
		Tasks: machine.NumEndpoints(), MsgBytes: 1e5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mtier.Simulate(machine, spec, mtier.SimOptions{AdaptiveRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := mtier.Energy(machine, res, mtier.DefaultEnergyModel())
	if err != nil {
		t.Fatal(err)
	}
	if e.TotalJoules <= 0 || e.DynamicJoules <= 0 {
		t.Fatalf("bad energy: %+v", e)
	}
}

func TestFacadeExtensionKinds(t *testing.T) {
	for _, kind := range []mtier.TopoKind{mtier.Thintree, mtier.Dragonfly, mtier.Jellyfish} {
		top, err := mtier.Build(mtier.TopoSpec{Kind: kind, Endpoints: 200})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if top.NumEndpoints() < 200 {
			t.Fatalf("%s too small", kind)
		}
	}
}
