package flow_test

import (
	"testing"

	"mtier/internal/core"
	"mtier/internal/flow"
	"mtier/internal/place"
	"mtier/internal/workload"
)

// Engine benchmarks: the incremental waterfill against the reference
// full recompute (the exact-recompute oracle) on the epoch-heavy regimes
// at n=4096, NestGHC (2,4). RelEpsilon is left at zero so every
// completion epoch recomputes rates — the regime whose epoch throughput
// the incremental engine exists to raise — and AllReduce uses random
// placement, which breaks the rate symmetry that would otherwise batch
// thousands of completions into a handful of epochs. Both engines run
// serially, so the parallel gates this test binary lowers do not apply.
// The reported epochs/sec is the rate-recomputation throughput; compare
// the Incremental and Reference variants of each pair.

const engineBenchEndpoints = 4096

func benchEngine(b *testing.B, w workload.Kind, pol place.Policy, exact bool) {
	top, err := core.Build(core.TopoSpec{
		Kind: core.NestGHC, Endpoints: engineBenchEndpoints, T: 2, U: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.Generate(w, workload.Params{
		Tasks: engineBenchEndpoints, MsgBytes: 1e6, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := place.Mapping(pol, engineBenchEndpoints, top.NumEndpoints(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if spec, err = place.Apply(spec, m); err != nil {
		b.Fatal(err)
	}
	opt := flow.Options{
		LatencyBase:   core.DefaultLatencyBase,
		LatencyPerHop: core.DefaultLatencyPerHop,
		Workers:       1,
	}
	if exact {
		opt = flow.WithExactRecompute(opt)
	}
	b.ResetTimer()
	epochs := 0
	for i := 0; i < b.N; i++ {
		res, err := flow.Simulate(top, spec, opt)
		if err != nil {
			b.Fatal(err)
		}
		epochs += res.Epochs
	}
	b.ReportMetric(float64(epochs)/b.Elapsed().Seconds(), "epochs/sec")
}

func BenchmarkEngineAllReduceIncremental(b *testing.B) {
	benchEngine(b, workload.AllReduce, place.Random, false)
}

func BenchmarkEngineAllReduceReference(b *testing.B) {
	benchEngine(b, workload.AllReduce, place.Random, true)
}

func BenchmarkEngineUnstructuredAppIncremental(b *testing.B) {
	benchEngine(b, workload.UnstructuredApp, place.Linear, false)
}

func BenchmarkEngineUnstructuredAppReference(b *testing.B) {
	benchEngine(b, workload.UnstructuredApp, place.Linear, true)
}
