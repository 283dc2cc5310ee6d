// Differential tests for the deterministic intra-run parallelism
// (Options.Workers, parallel.go): the parallel engine must be
// bit-identical to the serial engine — not statistically, not
// approximately; every float64 of the result equal to the last bit —
// for every worker count, across the paper's workloads and topology
// families, with and without fault events, and invisible to run-record
// fingerprints and sweep journals.
//
// The package is flow_test (not flow) so it can compose topologies and
// workloads through internal/core exactly as the CLIs do; the parallel
// stages' size gates are lowered for the whole test binary via
// SetParThresholds so that test-sized instances exercise every sharded
// code path rather than falling back to the serial fast paths.
package flow_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mtier/internal/core"
	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/topo"
	"mtier/internal/workload"
)

// parWorkerCounts is the differential worker-count matrix: an even
// split, an uneven split (shards of different sizes), and more workers
// than some stages have items (empty shards).
var parWorkerCounts = []int{2, 3, 8}

func TestMain(m *testing.M) {
	// Force every parallel stage on at test sizes, for this whole binary
	// (including the white-box flow tests, which then also run sharded
	// whenever GOMAXPROCS gives them a pool).
	flow.SetParThresholds(1, 1, 1, 1, 1)
	os.Exit(m.Run())
}

// parFamilies is the paper's four-family grid at differential scale,
// hybrids at the (2,4) design point.
var parFamilies = []struct {
	kind  core.TopoKind
	tt, u int
}{
	{core.Torus3D, 0, 0}, {core.Fattree, 0, 0}, {core.NestTree, 2, 4}, {core.NestGHC, 2, 4},
}

// mustIdentical fails unless the two results agree bitwise in every
// deterministic field.
func mustIdentical(t *testing.T, label string, got, want *flow.Result) {
	t.Helper()
	if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
		t.Fatalf("%s: makespan diverged: %x (%g) vs %x (%g)", label,
			math.Float64bits(got.Makespan), got.Makespan, math.Float64bits(want.Makespan), want.Makespan)
	}
	if got.Epochs != want.Epochs {
		t.Fatalf("%s: epoch count diverged: %d vs %d", label, got.Epochs, want.Epochs)
	}
	if len(got.FlowEnds) != len(want.FlowEnds) {
		t.Fatalf("%s: flow-end counts diverged: %d vs %d", label, len(got.FlowEnds), len(want.FlowEnds))
	}
	for i := range got.FlowEnds {
		if math.Float64bits(got.FlowEnds[i]) != math.Float64bits(want.FlowEnds[i]) {
			t.Fatalf("%s: flow %d finish time diverged: %x (%g) vs %x (%g)", label,
				i, math.Float64bits(got.FlowEnds[i]), got.FlowEnds[i],
				math.Float64bits(want.FlowEnds[i]), want.FlowEnds[i])
		}
	}
	if got.ReroutedFlows != want.ReroutedFlows || got.DisconnectedFlows != want.DisconnectedFlows {
		t.Fatalf("%s: fault accounting diverged: rerouted %d/%d, disconnected %d/%d", label,
			got.ReroutedFlows, want.ReroutedFlows, got.DisconnectedFlows, want.DisconnectedFlows)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"bytes_delivered", got.BytesDelivered, want.BytesDelivered},
		{"lost_bytes", got.LostBytes, want.LostBytes},
		{"hop_bytes", got.HopBytes, want.HopBytes},
		{"max_link_utilization", got.MaxLinkUtilization, want.MaxLinkUtilization},
		{"mean_link_utilization", got.MeanLinkUtilization, want.MeanLinkUtilization},
		{"max_port_utilization", got.MaxPortUtilization, want.MaxPortUtilization},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s: %s diverged: %g vs %g", label, c.name, c.got, c.want)
		}
	}
}

// TestParallelMatchesSerialPaperWorkloads is the core differential
// matrix: all 11 paper workloads × 4 topology families under the
// experiment presets, each with Workers ∈ {2, 3, 8}, compared bitwise
// against both the serial incremental engine and the serial
// exact-recompute oracle.
func TestParallelMatchesSerialPaperWorkloads(t *testing.T) {
	const n = 64
	for _, f := range parFamilies {
		for _, w := range workload.Kinds() {
			f, w := f, w
			t.Run(fmt.Sprintf("%s/%s", f.kind, w), func(t *testing.T) {
				t.Parallel()
				run := func(workers int, exact bool) *flow.Result {
					sim := flow.Options{RecordFlowEnds: true, Workers: workers}
					if exact {
						sim = flow.WithExactRecompute(sim)
					}
					res, err := core.Run(core.Config{
						Kind:      f.kind,
						Endpoints: n,
						T:         f.tt,
						U:         f.u,
						Workload:  w,
						Params:    workload.Params{Seed: 11},
						Sim:       sim,
					}, nil)
					if err != nil {
						t.Fatalf("workers=%d exact=%v: %v", workers, exact, err)
					}
					return res.Result
				}
				serial := run(1, false)
				oracle := run(1, true)
				for _, wk := range parWorkerCounts {
					par := run(wk, false)
					mustIdentical(t, fmt.Sprintf("workers=%d vs serial", wk), par, serial)
					mustIdentical(t, fmt.Sprintf("workers=%d vs oracle", wk), par, oracle)
				}
			})
		}
	}
}

// TestParallelExactEngine runs the reference exact-recompute engine
// itself with a pool: the batched membership replay is disabled there,
// but route construction and the epoch scans still shard, and the
// result must not move a bit.
func TestParallelExactEngine(t *testing.T) {
	const n = 64
	for _, f := range parFamilies {
		f := f
		t.Run(string(f.kind), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) *flow.Result {
				res, err := core.Run(core.Config{
					Kind:      f.kind,
					Endpoints: n,
					T:         f.tt,
					U:         f.u,
					Workload:  workload.AllToAll,
					Params:    workload.Params{Seed: 3},
					Sim:       flow.WithExactRecompute(flow.Options{RecordFlowEnds: true, Workers: workers}),
				}, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res.Result
			}
			serial := run(1)
			for _, wk := range parWorkerCounts {
				mustIdentical(t, fmt.Sprintf("workers=%d", wk), run(wk), serial)
			}
		})
	}
}

// TestParallelMatchesSerialFaultEvents covers the degraded path: fault
// events mid-run force flushes of the batched membership queue, reroute
// victims with batching disabled, and re-admit them — all of which must
// leave the parallel run bit-identical to the serial one.
func TestParallelMatchesSerialFaultEvents(t *testing.T) {
	const n = 64
	for _, f := range parFamilies {
		f := f
		t.Run(string(f.kind), func(t *testing.T) {
			t.Parallel()
			base, err := core.Build(core.TopoSpec{Kind: f.kind, Endpoints: n, T: f.tt, U: f.u})
			if err != nil {
				t.Fatal(err)
			}
			set, err := fault.Generate(base, fault.Spec{Model: fault.Random})
			if err != nil {
				t.Fatal(err)
			}
			d := fault.Wrap(base, set, nil)
			spec, err := workload.Generate(workload.AllReduce, workload.Params{
				Tasks:    base.NumEndpoints(),
				MsgBytes: 1e6,
				Seed:     7,
			})
			if err != nil {
				t.Fatal(err)
			}
			pristine, err := flow.Simulate(d, spec, flow.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Two waves of link kills while traffic is in flight; route ids
			// are topology links, guaranteed in range.
			events := []flow.FaultEvent{
				{Time: pristine.Makespan / 3, Links: topo.Route(base, 0, n/2)},
				{Time: pristine.Makespan / 2, Links: topo.Route(base, 1, n-1)},
			}
			run := func(workers int) *flow.Result {
				res, err := flow.Simulate(d, spec, flow.Options{
					RecordFlowEnds: true,
					FaultEvents:    events,
					Workers:        workers,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			serial := run(1)
			if serial.ReroutedFlows == 0 && serial.DisconnectedFlows == 0 {
				t.Fatal("fault schedule touched no flows; the test is vacuous")
			}
			for _, wk := range parWorkerCounts {
				mustIdentical(t, fmt.Sprintf("workers=%d", wk), run(wk), serial)
			}
		})
	}
}

// TestWorkersInvisibleToRecordsAndKeys: Workers is an execution detail,
// not an experiment parameter — it must not appear in the marshalled
// options, must not move a sweep cell key, and must not move a
// run-record fingerprint.
func TestWorkersInvisibleToRecordsAndKeys(t *testing.T) {
	t.Parallel()
	raw, err := json.Marshal(flow.Options{Workers: 8, RelEpsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.ToLower(string(raw)), "workers") {
		t.Fatalf("Workers leaked into marshalled options: %s", raw)
	}

	cfg := core.Config{
		Kind:      core.Torus3D,
		Endpoints: 64,
		Workload:  workload.AllReduce,
		Params:    workload.Params{Seed: 1},
	}
	kSerial, err := core.CellKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sim.Workers = 8
	kParallel, err := core.CellKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kSerial != kParallel {
		t.Fatalf("Workers changed the cell key: %s vs %s", kSerial, kParallel)
	}

	fingerprint := func(workers int) []byte {
		c := cfg
		c.Sim.Workers = workers
		res, err := core.Run(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := res.Record().Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	want := fingerprint(1)
	for _, wk := range parWorkerCounts {
		if got := fingerprint(wk); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: run-record fingerprint diverged from serial:\n want %s\n have %s", wk, want, got)
		}
	}
}

// TestSerialJournalResumesUnderParallel: a sweep journal written by a
// serial run must resume cleanly under a parallel run — journaled cells
// splice by key, the remainder simulates with Workers > 1, and every
// cell fingerprint matches an uninterrupted serial sweep's.
func TestSerialJournalResumesUnderParallel(t *testing.T) {
	t.Parallel()
	specs := []core.TopoSpec{
		{Kind: core.Torus3D, Endpoints: 64},
		{Kind: core.NestGHC, Endpoints: 64, T: 2, U: 4},
	}
	fracs := []float64{0.05}
	base := core.DegradationOptions{
		Model:     fault.Random,
		FaultSeed: 7,
		Workload:  workload.AllReduce,
		Params:    workload.Params{Seed: 1},
		Sim:       flow.Options{Workers: 1},
	}

	clean, err := core.DegradationSweep(specs, fracs, base)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := cellFingerprints(t, clean)

	// Serial run, interrupted after two completed cells.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := core.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cells atomic.Int64
	interrupted := base
	interrupted.Journal = j
	interrupted.OnCell = func(core.TopoSpec, float64, *core.RunResult, bool) {
		if cells.Add(1) == 2 {
			cancel()
		}
	}
	if _, err := core.DegradationSweepContext(ctx, specs, fracs, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Parallel resume from the serial journal.
	j2, err := core.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	total := len(specs) * (len(fracs) + 1)
	if n := j2.Len(); n == 0 || n >= total {
		t.Fatalf("journal holds %d cells, want an interrupted count in (0, %d)", n, total)
	}
	resumed := base
	resumed.Journal = j2
	resumed.Sim.Workers = 8
	rep, err := core.DegradationSweepContext(context.Background(), specs, fracs, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	gotFP := cellFingerprints(t, rep)
	if len(gotFP) != len(wantFP) {
		t.Fatalf("resumed sweep has %d cells, clean serial run %d", len(gotFP), len(wantFP))
	}
	for k, want := range wantFP {
		if !bytes.Equal(gotFP[k], want) {
			t.Errorf("cell %s: parallel resume fingerprint differs from the serial sweep", k)
		}
	}
}

// cellFingerprints flattens a degradation report into per-cell run-record
// fingerprints keyed by cell identity.
func cellFingerprints(t *testing.T, rep *core.DegradationReport) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for si, series := range rep.Series {
		for _, c := range series {
			fp, err := c.Result.Record().Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%d/%s@%g", si, c.Result.Topology, c.Fraction)] = fp
		}
	}
	return out
}

// TestNegativeWorkersRejected: Workers < 0 is a validation error, not a
// silent serial fallback.
func TestNegativeWorkersRejected(t *testing.T) {
	t.Parallel()
	top, err := core.Build(core.TopoSpec{Kind: core.Torus3D, Endpoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	spec := &flow.Spec{}
	spec.Add(0, 1, 1e6)
	if _, err := flow.Simulate(top, spec, flow.Options{Workers: -1}); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("negative Workers accepted: %v", err)
	}
}
