package core

import (
	"runtime"
	"testing"
	"time"

	"mtier/internal/flow"
	"mtier/internal/metrics"
	"mtier/internal/workload"
)

// TestPaperScale131072 runs one full-machine cell — the paper's
// 131,072-endpoint design point — as an ordinary test: an implicit
// hybrid topology, its Table-1 static summary, and a Figure-4-style
// AllReduce simulation, with a hard ceiling on live heap proving the
// implicit representation keeps paper scale inside routine-CI memory.
//
// It skips under -short and under the race detector (see
// race_off_test.go); the CI scale-smoke job runs it uninstrumented.
func TestPaperScale131072(t *testing.T) {
	if raceEnabled {
		t.Skip("paper-scale smoke skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("paper-scale smoke skipped in -short mode")
	}
	const n = 131072

	// memCeilingBytes bounds MemStats.Sys — the total memory the runtime
	// has obtained from the OS, a monotone proxy for peak RSS that the
	// GC cannot hide by collecting the simulation state before we look.
	// The run measures about 627 MB (Go 1.24, linux/amd64, 2 vCPUs); the
	// ceiling leaves headroom for allocator and GC-pacing noise while
	// still failing on a representation regression (a materialised 131k
	// hybrid is tens of GB of link and route tables) or on the engine's
	// per-flow state creeping back towards its earlier 1 GB.
	const memCeilingBytes = 1536 << 20

	memNow := func(stage string) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.Logf("%s: live heap %.1f MB, %.1f MB from the OS",
			stage, float64(ms.HeapAlloc)/(1<<20), float64(ms.Sys)/(1<<20))
		if ms.Sys > memCeilingBytes {
			t.Fatalf("%s: %.1f MB obtained from the OS exceeds the %.1f MB paper-scale ceiling",
				stage, float64(ms.Sys)/(1<<20), float64(memCeilingBytes)/(1<<20))
		}
	}

	start := time.Now()
	top, err := Build(TopoSpec{Kind: NestGHC, Endpoints: n, T: 4, U: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := top.NumEndpoints(); got != n {
		t.Fatalf("built %d endpoints, want %d", got, n)
	}
	t.Logf("built %s in %v", top.Name(), time.Since(start))
	memNow("after build")

	// Table-1 cell: exact mean distance and diameter in O(1).
	st, ok := metrics.Static(top)
	if !ok {
		t.Fatalf("%s lost its closed-form distance stats", top.Name())
	}
	if !st.ExactMean || !st.ExactMax || st.Mean <= 0 || st.Max <= 0 {
		t.Fatalf("implausible static stats at paper scale: %+v", st)
	}
	if st.Mean > float64(st.Max) {
		t.Fatalf("mean distance %.3f exceeds diameter %d", st.Mean, st.Max)
	}
	t.Logf("Table 1: mean distance %.3f, diameter %d over %d pairs", st.Mean, st.Max, st.Pairs)

	// Figure-4 cell: the optimised AllReduce collective across the full
	// machine — log2(n)=17 rounds, ~2.2M flows.
	start = time.Now()
	res, err := Run(Config{
		Kind:      NestGHC,
		Endpoints: n,
		T:         4,
		U:         4,
		Workload:  workload.AllReduce,
		Params:    workload.Params{Seed: 11},
		Sim:       flow.Options{},
	}, top)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("AllReduce at n=%d: makespan %.4g, %d epochs, in %v",
		n, res.Result.Makespan, res.Result.Epochs, time.Since(start))
	if res.Result.Makespan <= 0 || res.Result.Epochs <= 0 {
		t.Fatalf("implausible simulation result: makespan %g, epochs %d",
			res.Result.Makespan, res.Result.Epochs)
	}
	if res.Result.LostBytes != 0 || res.Result.DisconnectedFlows != 0 {
		t.Fatalf("fault-free run lost traffic: %g bytes, %d disconnected",
			res.Result.LostBytes, res.Result.DisconnectedFlows)
	}
	memNow("after simulation")
}
