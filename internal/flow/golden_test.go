package flow_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtier/internal/core"
	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/obs"
	"mtier/internal/topo"
	"mtier/internal/trace"
	"mtier/internal/workload"
)

// goldenCell runs one of the observation-golden cells with a metrics
// registry and a flight recorder attached: a pristine NestGHC
// UnstructuredApp run recomputing every epoch, or an AllReduce on a
// torus that loses nine links in two fault events. flowTrace, when
// non-nil, receives the per-flow Options.Trace CSV.
func goldenCell(t *testing.T, faults, exact bool, workers int, flowTrace io.Writer) (*obs.Registry, *trace.Recorder) {
	t.Helper()
	opt := flow.Options{
		RelEpsilon: 0.01, RefreshFraction: 1.0 / 16,
		LatencyBase: core.DefaultLatencyBase, LatencyPerHop: core.DefaultLatencyPerHop,
		Workers: workers, Trace: flowTrace, Metrics: obs.NewRegistry(), Tracer: trace.NewRecorder(),
	}
	var top topo.Topology
	var spec *flow.Spec
	var err error
	if !faults {
		if top, err = core.Build(core.TopoSpec{Kind: core.NestGHC, Endpoints: 64, T: 2, U: 4}); err != nil {
			t.Fatal(err)
		}
		opt.RelEpsilon, opt.RefreshFraction = 0, 0
		spec, err = workload.Generate(workload.UnstructuredApp, workload.Params{Tasks: 64, MsgBytes: 1e6, Seed: 3})
	} else {
		base, berr := core.Build(core.TopoSpec{Kind: core.Torus3D, Endpoints: 64})
		if berr != nil {
			t.Fatal(berr)
		}
		set, ferr := fault.Generate(base, fault.Spec{Model: fault.Random})
		if ferr != nil {
			t.Fatal(ferr)
		}
		top = fault.Wrap(base, set, nil)
		opt.FaultEvents = []flow.FaultEvent{
			{Time: 2e-3, Links: []int32{0, 7, 19, 33}},
			{Time: 6e-3, Links: []int32{2, 50, 91, 120, 150}},
		}
		spec, err = workload.Generate(workload.AllReduce, workload.Params{Tasks: 64, MsgBytes: 1e6, Seed: 7})
	}
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		opt = flow.WithExactRecompute(opt)
	}
	if _, err := flow.Simulate(top, spec, opt); err != nil {
		t.Fatal(err)
	}
	return opt.Metrics, opt.Tracer
}

// TestEpochObservationGoldens pins everything the engine reports per
// epoch against goldens recorded from the engine's earlier, separate
// epoch-probe channel: the epoch CSV without its wall-clock column, the
// flow.* counters, and the sha256 of the recorder's deterministic
// surface. Routing every fact through one observation site must not
// move any of them.
func TestEpochObservationGoldens(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "epoch-goldens.json"))
	if err != nil {
		t.Fatal(err)
	}
	var goldens map[string]struct {
		Counters    map[string]int64 `json:"counters"`
		TraceSHA256 string           `json:"trace_sha256"`
	}
	if err := json.Unmarshal(raw, &goldens); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		faults, exact bool
	}{
		{"pristine", false, false}, {"pristine-exact", false, true},
		{"faults", true, false}, {"faults-exact", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, ok := goldens[c.name]
			if !ok {
				t.Fatalf("no golden for %s", c.name)
			}
			reg, rec := goldenCell(t, c.faults, c.exact, 1, nil)

			var buf bytes.Buffer
			if err := flow.WriteEpochCSV(&buf, rec); err != nil {
				t.Fatal(err)
			}
			rows, err := csv.NewReader(&buf).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, r := range rows {
				got.WriteString(strings.Join(r[:len(r)-1], ",") + "\n") // drop wall_ns
			}
			wantCSV, err := os.ReadFile(filepath.Join("testdata", "epochs-"+c.name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(wantCSV) {
				t.Errorf("epoch CSV diverged from golden:\ngot:\n%.600s\nwant:\n%.600s", got.String(), wantCSV)
			}

			counters := reg.Snapshot().Counters
			for name, v := range counters {
				if _, ok := want.Counters[name]; !ok && strings.HasPrefix(name, "flow.") {
					t.Errorf("counter %s = %d is not in the golden", name, v)
				}
			}
			for name, v := range want.Counters {
				if counters[name] != v {
					t.Errorf("counter %s = %d, golden %d", name, counters[name], v)
				}
			}

			det, err := rec.DeterministicJSON()
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(det); hex.EncodeToString(sum[:]) != want.TraceSHA256 {
				t.Errorf("deterministic trace sha256 %x, golden %s", sum, want.TraceSHA256)
			}
		})
	}
}

// TestCompletionOrderGoldens pins the order in which flows complete,
// which the epoch goldens above do not: the per-flow Options.Trace CSV
// is written in completion order, and linkBytes and HopBytes are summed
// in it. Ties in the latency model's pending heap decide that order, so
// the digests guard the heap's tie-breaking as well as the packed
// membership replay that the sharded run (Workers: 2, every gate at 1
// in this test binary) exercises. Under two workers only the CSV is
// compared: the flow.shard.* counters differ there by design.
func TestCompletionOrderGoldens(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "completion-order.json"))
	if err != nil {
		t.Fatal(err)
	}
	var goldens map[string]string
	if err := json.Unmarshal(raw, &goldens); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pristine", "faults"} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				var rows bytes.Buffer
				goldenCell(t, name == "faults", false, workers, &rows)
				if sum := sha256.Sum256(rows.Bytes()); hex.EncodeToString(sum[:]) != goldens[name] {
					t.Errorf("completion-order CSV sha256 %x, golden %q", sum, goldens[name])
				}
			})
		}
	}
}
