package flow_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mtier/internal/core"
	"mtier/internal/flow"
	"mtier/internal/obs"
	"mtier/internal/topo"
	"mtier/internal/workload"
	"mtier/internal/xrand"
)

// The incremental engine must be indistinguishable from the reference
// full waterfill (the exact-recompute oracle, selected through
// WithExactRecompute): not approximately equal — bitwise. These tests
// run every paper workload and seeded random DAGs over the four topology
// families with both engines and compare makespans and per-flow finish
// times down to the last bit. Each cell's reference result is also
// pinned, as a digest, in testdata/reference-results.json: the tests of
// the same names in internal/core, which cannot select the oracle, hold
// the incremental engine as core composes it to those digests.

// diffFamilies is the paper's four-family grid at a differential-test
// scale, hybrids at the (2,4) design point.
func diffFamilies(t testing.TB, n int) map[string]topo.Topology {
	t.Helper()
	out := make(map[string]topo.Topology)
	for _, f := range parFamilies {
		top, err := core.Build(core.TopoSpec{Kind: f.kind, Endpoints: n, T: f.tt, U: f.u})
		if err != nil {
			t.Fatalf("building %s: %v", f.kind, err)
		}
		out[string(f.kind)] = top
	}
	return out
}

// mustMatch fails unless the two results are bitwise identical in every
// deterministic field.
func mustMatch(t *testing.T, inc, ref *flow.Result) {
	t.Helper()
	if math.Float64bits(inc.Makespan) != math.Float64bits(ref.Makespan) {
		t.Fatalf("makespan diverged: incremental %x (%g) vs reference %x (%g)",
			math.Float64bits(inc.Makespan), inc.Makespan, math.Float64bits(ref.Makespan), ref.Makespan)
	}
	if inc.Epochs != ref.Epochs {
		t.Fatalf("epoch count diverged: incremental %d vs reference %d", inc.Epochs, ref.Epochs)
	}
	if len(inc.FlowEnds) != len(ref.FlowEnds) {
		t.Fatalf("flow-end counts diverged: %d vs %d", len(inc.FlowEnds), len(ref.FlowEnds))
	}
	for i := range inc.FlowEnds {
		if math.Float64bits(inc.FlowEnds[i]) != math.Float64bits(ref.FlowEnds[i]) {
			t.Fatalf("flow %d finish time diverged: %x (%g) vs %x (%g)",
				i, math.Float64bits(inc.FlowEnds[i]), inc.FlowEnds[i],
				math.Float64bits(ref.FlowEnds[i]), ref.FlowEnds[i])
		}
	}
	for _, c := range []struct {
		name     string
		inc, ref float64
	}{
		{"bytes_delivered", inc.BytesDelivered, ref.BytesDelivered},
		{"hop_bytes", inc.HopBytes, ref.HopBytes},
		{"max_link_utilization", inc.MaxLinkUtilization, ref.MaxLinkUtilization},
		{"mean_link_utilization", inc.MeanLinkUtilization, ref.MeanLinkUtilization},
		{"max_port_utilization", inc.MaxPortUtilization, ref.MaxPortUtilization},
	} {
		if math.Float64bits(c.inc) != math.Float64bits(c.ref) {
			t.Fatalf("%s diverged: %g vs %g", c.name, c.inc, c.ref)
		}
	}
	if got, want := resultDigest(ref), referenceDigests(t)[t.Name()]; got != want {
		t.Fatalf("reference result digest %s, recorded %q in %s", got, want, referenceFile)
	}
}

// referenceFile records resultDigest of the reference engine's result
// for every differential cell, keyed by subtest name.
var referenceFile = filepath.Join("testdata", "reference-results.json")

var (
	refOnce    sync.Once
	refDigests map[string]string
	refErr     error
)

func referenceDigests(t *testing.T) map[string]string {
	t.Helper()
	refOnce.Do(func() {
		var raw []byte
		if raw, refErr = os.ReadFile(referenceFile); refErr == nil {
			refErr = json.Unmarshal(raw, &refDigests)
		}
	})
	if refErr != nil {
		t.Fatal(refErr)
	}
	return refDigests
}

// resultDigest is the sha256 of every field mustMatch compares, bit for
// bit. internal/core's differential tests compute the same digest.
func resultDigest(r *flow.Result) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	put(math.Float64bits(r.Makespan))
	put(uint64(r.Epochs))
	put(uint64(len(r.FlowEnds)))
	for _, f := range r.FlowEnds {
		put(math.Float64bits(f))
	}
	for _, f := range []float64{r.BytesDelivered, r.HopBytes, r.MaxLinkUtilization, r.MeanLinkUtilization, r.MaxPortUtilization} {
		put(math.Float64bits(f))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runBoth simulates the same spec with both engines and returns
// (incremental, reference).
func runBoth(t *testing.T, top topo.Topology, spec *flow.Spec, opt flow.Options) (*flow.Result, *flow.Result) {
	t.Helper()
	opt.RecordFlowEnds = true
	inc, err := flow.Simulate(top, spec, opt)
	if err != nil {
		t.Fatalf("incremental engine: %v", err)
	}
	ref, err := flow.Simulate(top, spec, flow.WithExactRecompute(opt))
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	return inc, ref
}

// TestIncrementalMatchesReferencePaperWorkloads covers all 11 paper
// workloads × 4 topology families under the experiment presets
// (RelEpsilon, RefreshFraction, latency defaults), via the same
// composition core.Run uses.
func TestIncrementalMatchesReferencePaperWorkloads(t *testing.T) {
	const n = 64
	for _, kindT := range parFamilies {
		for _, w := range workload.Kinds() {
			kindT, w := kindT, w
			t.Run(fmt.Sprintf("%s/%s", kindT.kind, w), func(t *testing.T) {
				t.Parallel()
				cfg := core.Config{
					Kind:      kindT.kind,
					Endpoints: n,
					T:         kindT.tt,
					U:         kindT.u,
					Workload:  w,
					Params:    workload.Params{Seed: 11},
					Sim:       flow.Options{RecordFlowEnds: true},
				}
				inc, err := core.Run(cfg, nil)
				if err != nil {
					t.Fatalf("incremental engine: %v", err)
				}
				// The oracle must survive core's option handling: no
				// incremental fill may run under it.
				reg := obs.NewRegistry()
				cfg.Sim = flow.WithExactRecompute(flow.Options{RecordFlowEnds: true, Metrics: reg})
				ref, err := core.Run(cfg, nil)
				if err != nil {
					t.Fatalf("reference engine: %v", err)
				}
				if n := reg.Counter("flow.waterfill.incremental").Value(); n != 0 {
					t.Fatalf("reference run made %d incremental fills", n)
				}
				mustMatch(t, inc.Result, ref.Result)
			})
		}
	}
}

// TestIncrementalMatchesReferenceExactSettings re-runs representative
// workloads with RelEpsilon=0 and RefreshFraction=0 — a recomputation at
// every completion epoch, the regime where the incremental engine's
// restricted fills and fallbacks both fire constantly.
func TestIncrementalMatchesReferenceExactSettings(t *testing.T) {
	const n = 64
	tops := diffFamilies(t, n)
	for name, top := range tops {
		for _, w := range []workload.Kind{workload.AllReduce, workload.UnstructuredApp, workload.Reduce, workload.Sweep3D} {
			name, top, w := name, top, w
			t.Run(fmt.Sprintf("%s/%s", name, w), func(t *testing.T) {
				t.Parallel()
				spec, err := workload.Generate(w, workload.Params{
					Tasks:    top.NumEndpoints(),
					MsgBytes: core.DefaultMsgBytes(w),
					Seed:     5,
				})
				if err != nil {
					t.Fatal(err)
				}
				inc, ref := runBoth(t, top, spec, flow.Options{
					LatencyBase:   core.DefaultLatencyBase,
					LatencyPerHop: core.DefaultLatencyPerHop,
				})
				mustMatch(t, inc, ref)
			})
		}
	}
}

// randomDAG builds a seeded random workload: mixed sizes (including
// zero-byte control flows and self-sends), and chains of up to three
// dependencies on earlier flows, so injection cascades and latency
// staggering both occur.
func randomDAG(n, flows int, seed int64) *flow.Spec {
	rng := xrand.New(seed)
	spec := &flow.Spec{}
	for i := 0; i < flows; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n) // self-sends allowed
		bytes := 1e3 * rng.LogNormal(2, 1.5)
		switch rng.Intn(10) {
		case 0:
			bytes = 0 // pure-control flow: completes instantly, cascades
		case 1:
			dst = src
		}
		var deps []int32
		if i > 0 {
			for d := rng.Intn(4); d > 0; d-- {
				deps = append(deps, int32(rng.Intn(i)))
			}
		}
		spec.Add(src, dst, bytes, deps...)
	}
	return spec
}

// TestIncrementalMatchesReferenceRandomDAGs fuzzes the engines against
// each other across the 4 families and the option axes that change the
// engine's resource graph: port model on/off, adaptive routing, latency.
func TestIncrementalMatchesReferenceRandomDAGs(t *testing.T) {
	const n = 64
	tops := diffFamilies(t, n)
	variants := []struct {
		name string
		opt  flow.Options
	}{
		{"default", flow.Options{}},
		{"exact_eps", flow.Options{RelEpsilon: 0, RefreshFraction: 0}},
		{"preset", flow.Options{RelEpsilon: 0.01, RefreshFraction: 1.0 / 16}},
		{"noports", flow.Options{DisablePorts: true}},
		{"latency", flow.Options{LatencyBase: core.DefaultLatencyBase, LatencyPerHop: core.DefaultLatencyPerHop}},
		{"adaptive", flow.Options{AdaptiveRouting: true}},
	}
	for name, top := range tops {
		for _, v := range variants {
			for seed := int64(1); seed <= 3; seed++ {
				name, top, v, seed := name, top, v, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, v.name, seed), func(t *testing.T) {
					t.Parallel()
					spec := randomDAG(top.NumEndpoints(), 600, seed)
					inc, ref := runBoth(t, top, spec, v.opt)
					mustMatch(t, inc, ref)
				})
			}
		}
	}
}
