package mtier_test

// One benchmark per table and figure of the paper. Each BenchmarkFig*
// benchmark regenerates the corresponding panel (all 26 topology cells of
// one workload) at a reduced system size so `go test -bench=.` stays
// tractable; the cmd/mtsweep, cmd/mttopo and cmd/mtcost binaries run the
// same code at full scale. EXPERIMENTS.md records paper-vs-measured for
// every artefact.

import (
	"sync"
	"testing"

	"mtier"
	"mtier/internal/core"
	"mtier/internal/cost"
	"mtier/internal/workload"
)

const benchEndpoints = 512

var (
	benchSetOnce sync.Once
	benchSet     *core.TopoSet
	benchSetErr  error
)

func getSet(b *testing.B) *core.TopoSet {
	benchSetOnce.Do(func() {
		benchSet, benchSetErr = core.BuildSet(benchEndpoints, 0)
	})
	if benchSetErr != nil {
		b.Fatal(benchSetErr)
	}
	return benchSet
}

// BenchmarkTable1 regenerates Table 1: average distance and diameter of
// every hybrid configuration plus the references.
func BenchmarkTable1(b *testing.B) {
	set := getSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table1(set, 50_000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2: switch counts and cost/power
// overheads (topology construction + cost model).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table2(4096, cost.DefaultModel()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPanel(b *testing.B, w workload.Kind) {
	benchPanelTasks(b, w, 0)
}

func benchPanelTasks(b *testing.B, w workload.Kind, tasks int) {
	set := getSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Panel(set, w, core.PanelOptions{Seed: 1, Tasks: tasks}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 4 — heavy workloads.

func BenchmarkFig4UnstructuredApp(b *testing.B) { benchPanel(b, workload.UnstructuredApp) }
func BenchmarkFig4UnstructuredHR(b *testing.B)  { benchPanel(b, workload.UnstructuredHR) }
func BenchmarkFig4Bisection(b *testing.B)       { benchPanel(b, workload.Bisection) }
func BenchmarkFig4AllReduce(b *testing.B)       { benchPanel(b, workload.AllReduce) }
func BenchmarkFig4NBodies(b *testing.B)         { benchPanel(b, workload.NBodies) }
func BenchmarkFig4NearNeighbors(b *testing.B)   { benchPanel(b, workload.NearNeighbors) }

// Figure 5 — light workloads.

func BenchmarkFig5UnstructuredMgnt(b *testing.B) { benchPanel(b, workload.UnstructuredMgnt) }

// MapReduce's T² shuffle makes the full-machine panel the most expensive
// benchmark by an order of magnitude; the bench regenerates it with 128
// tasks spread over the machine (mtsweep runs the full-size panel).
func BenchmarkFig5MapReduce(b *testing.B) { benchPanelTasks(b, workload.MapReduce, 128) }
func BenchmarkFig5Reduce(b *testing.B)    { benchPanel(b, workload.Reduce) }
func BenchmarkFig5Flood(b *testing.B)     { benchPanel(b, workload.Flood) }
func BenchmarkFig5Sweep3D(b *testing.B)   { benchPanel(b, workload.Sweep3D) }

const engineBenchEndpoints = 4096

// Preset-regime pair: the same simulation under the experiment presets
// the paper sweeps actually run (RelEpsilon 0.01, RefreshFraction 1/16,
// linear placement), serial versus a GOMAXPROCS worker pool. This is the
// regime where epoch costs are dominated by the sharded stages (route
// construction, occupied-list sorts, fill setup, membership batches), so
// it carries the parallel speedup target: CI compares the pair and fails
// if the parallel run is slower than the serial one. Results are
// bit-identical by construction (see internal/flow/parallel_test.go).
func benchEnginePreset(b *testing.B, workers int) {
	top, err := mtier.Build(mtier.TopoSpec{
		Kind: mtier.NestGHC, Endpoints: engineBenchEndpoints, T: 2, U: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := mtier.GenerateWorkload(mtier.AllReduce, mtier.WorkloadParams{
		Tasks: engineBenchEndpoints, MsgBytes: 1e6, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	mapped, err := mtier.Place(spec, mtier.PlaceLinear, engineBenchEndpoints, top.NumEndpoints(), 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := mtier.SimOptions{
		LatencyBase:     core.DefaultLatencyBase,
		LatencyPerHop:   core.DefaultLatencyPerHop,
		RelEpsilon:      0.01,
		RefreshFraction: 1.0 / 16,
		Workers:         workers,
	}
	b.ResetTimer()
	epochs := 0
	for i := 0; i < b.N; i++ {
		res, err := mtier.Simulate(top, mapped, opt)
		if err != nil {
			b.Fatal(err)
		}
		epochs += res.Epochs
	}
	b.ReportMetric(float64(epochs)/b.Elapsed().Seconds(), "epochs/sec")
}

func BenchmarkEnginePresetAllReduceSerial(b *testing.B)   { benchEnginePreset(b, 1) }
func BenchmarkEnginePresetAllReduceParallel(b *testing.B) { benchEnginePreset(b, 0) }
