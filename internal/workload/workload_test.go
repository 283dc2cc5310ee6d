package workload

import (
	"strings"
	"testing"

	"mtier/internal/flow"
	"mtier/internal/grid"
	"mtier/internal/topo/torus"
)

// checkDAG runs Kahn's algorithm and fails on cycles or bad deps.
func checkDAG(t *testing.T, s *flow.Spec) {
	t.Helper()
	n := len(s.Flows)
	indeg := make([]int, n)
	children := make([][]int32, n)
	for i, f := range s.Flows {
		for _, d := range f.Deps {
			if d < 0 || int(d) >= n {
				t.Fatalf("flow %d has bad dep %d", i, d)
			}
			indeg[i]++
			children[d] = append(children[d], int32(i))
		}
	}
	queue := []int32{}
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, c := range children[v] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if seen != n {
		t.Fatalf("dependency cycle: only %d of %d flows reachable", seen, n)
	}
}

func gen(t *testing.T, k Kind, p Params) *flow.Spec {
	t.Helper()
	s, err := Generate(k, p)
	if err != nil {
		t.Fatalf("%s: %v", k, err)
	}
	return s
}

func TestAllKindsGenerateValidDAGs(t *testing.T) {
	for _, k := range Kinds() {
		for _, tasks := range []int{2, 16, 64, 100} {
			s := gen(t, k, Params{Tasks: tasks, Seed: 1})
			if len(s.Flows) == 0 {
				t.Errorf("%s tasks=%d: no flows", k, tasks)
			}
			for i, f := range s.Flows {
				if f.Src < 0 || int(f.Src) >= tasks || f.Dst < 0 || int(f.Dst) >= tasks {
					t.Fatalf("%s: flow %d endpoints out of range: %d->%d", k, i, f.Src, f.Dst)
				}
				if f.Bytes < 0 {
					t.Fatalf("%s: flow %d negative size", k, i)
				}
			}
			checkDAG(t, s)
		}
	}
}

func TestKindClassification(t *testing.T) {
	if len(Kinds()) != 11 {
		t.Fatalf("expected 11 workloads, got %d", len(Kinds()))
	}
	if len(HeavyKinds()) != 6 || len(LightKinds()) != 5 {
		t.Fatal("heavy/light split wrong")
	}
	if !IsHeavy(Bisection) || IsHeavy(Reduce) {
		t.Fatal("IsHeavy misclassifies")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	if _, err := Generate(Kind("nope"), Params{Tasks: 4}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Generate(Reduce, Params{Tasks: 1}); err == nil {
		t.Fatal("tasks=1 accepted")
	}
	if _, err := Generate(Reduce, Params{Tasks: 8, MsgBytes: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := Generate(UnstructuredHR, Params{Tasks: 8, HotFraction: 2}); err == nil {
		t.Fatal("bad hot fraction accepted")
	}
}

func TestFlowCounts(t *testing.T) {
	T := 64
	cases := []struct {
		k    Kind
		want int
	}{
		{Reduce, T - 1},
		{AllReduce, T * 6}, // log2(64) rounds, T flows each
		{MapReduce, (T - 1) + T*(T-1) + (T - 1)},
		{Sweep3D, 3 * 3 * (4 * 4 * 4)}, // grid 4x4x4: 3 dims x (4-1)*16 = 144
		{NBodies, T * T / 2},
		{UnstructuredApp, T * 4},
		{UnstructuredMgnt, T * 4},
		{UnstructuredHR, T * 4},
		{Bisection, 4 * T}, // 4 rounds x (T/2 pairs x 2 flows)
	}
	for _, c := range cases {
		s := gen(t, c.k, Params{Tasks: T, Seed: 2})
		if c.k == Sweep3D {
			// grid 4x4x4: forward flows per dim = 3*16 = 48; 3 dims = 144.
			if len(s.Flows) != 144 {
				t.Errorf("%s: %d flows, want 144", c.k, len(s.Flows))
			}
			continue
		}
		if len(s.Flows) != c.want {
			t.Errorf("%s: %d flows, want %d", c.k, len(s.Flows), c.want)
		}
	}
	// Flood = Wavefronts x sweep count.
	s := gen(t, Flood, Params{Tasks: T, Seed: 2, Wavefronts: 3})
	if len(s.Flows) != 3*144 {
		t.Errorf("flood: %d flows, want %d", len(s.Flows), 3*144)
	}
	// NearNeighbors on 4x4x4 grid: 6 neighbours x 64 tasks x rounds.
	s = gen(t, NearNeighbors, Params{Tasks: T, Seed: 2, Rounds: 2})
	if len(s.Flows) != 2*6*64 {
		t.Errorf("nearneighbors: %d flows, want %d", len(s.Flows), 2*6*64)
	}
}

func TestReduceTargetsRoot(t *testing.T) {
	s := gen(t, Reduce, Params{Tasks: 32})
	for _, f := range s.Flows {
		if f.Dst != 0 {
			t.Fatalf("reduce flow to %d", f.Dst)
		}
		if len(f.Deps) != 0 {
			t.Fatal("reduce must be dependency-free")
		}
	}
}

func TestAllReduceRoundsStructure(t *testing.T) {
	s := gen(t, AllReduce, Params{Tasks: 8})
	// 3 rounds of 8 flows; round r flows are ids [8r, 8r+8).
	if len(s.Flows) != 24 {
		t.Fatalf("flows = %d", len(s.Flows))
	}
	for i, f := range s.Flows {
		round := i / 8
		bit := 1 << round
		if int(f.Dst) != int(f.Src)^bit {
			t.Fatalf("round %d flow %d: %d->%d, want partner XOR %d", round, i, f.Src, f.Dst, bit)
		}
		if round == 0 && len(f.Deps) != 0 {
			t.Fatal("round 0 must have no deps")
		}
		if round > 0 && len(f.Deps) != 1 {
			t.Fatalf("round %d flow must depend on previous receive", round)
		}
	}
}

// TestAllReduceAllocatesOnce checks the generator's allocation shape:
// the flow list is sized exactly by the closed-form count (a wrong count
// would leave spare capacity or grow the list), and the dependency lists
// carved from one backing array stay independent of each other.
func TestAllReduceAllocatesOnce(t *testing.T) {
	for _, tasks := range []int{2, 3, 5, 6, 7, 8, 12, 13, 64, 100, 1000} {
		s := gen(t, AllReduce, Params{Tasks: tasks})
		if len(s.Flows) != cap(s.Flows) {
			t.Errorf("tasks=%d: %d flows in a list of capacity %d", tasks, len(s.Flows), cap(s.Flows))
		}
		for i := 0; i+1 < len(s.Flows); i++ {
			a, b := &s.Flows[i], &s.Flows[i+1]
			if len(a.Deps) != 1 || len(b.Deps) != 1 {
				continue
			}
			want := b.Deps[0]
			a.Deps = append(a.Deps, -7)
			if b.Deps[0] != want || len(b.Deps) != 1 {
				t.Fatalf("tasks=%d: appending to flow %d's deps changed flow %d's to %v", tasks, i, i+1, b.Deps)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, k := range []Kind{UnstructuredApp, UnstructuredMgnt, UnstructuredHR, Bisection} {
		a := gen(t, k, Params{Tasks: 50, Seed: 9})
		b := gen(t, k, Params{Tasks: 50, Seed: 9})
		if len(a.Flows) != len(b.Flows) {
			t.Fatalf("%s: nondeterministic flow count", k)
		}
		for i := range a.Flows {
			if a.Flows[i].Src != b.Flows[i].Src || a.Flows[i].Dst != b.Flows[i].Dst || a.Flows[i].Bytes != b.Flows[i].Bytes {
				t.Fatalf("%s: flow %d differs between equal seeds", k, i)
			}
		}
		c := gen(t, k, Params{Tasks: 50, Seed: 10})
		same := len(a.Flows) == len(c.Flows)
		if same {
			diff := false
			for i := range a.Flows {
				if a.Flows[i].Dst != c.Flows[i].Dst || a.Flows[i].Bytes != c.Flows[i].Bytes {
					diff = true
					break
				}
			}
			same = !diff
		}
		if same {
			t.Errorf("%s: different seeds produced identical workloads", k)
		}
	}
}

func TestHotRegionIsHot(t *testing.T) {
	T := 200
	s := gen(t, UnstructuredHR, Params{Tasks: T, Seed: 3})
	counts := make([]int, T)
	for _, f := range s.Flows {
		counts[f.Dst]++
	}
	// The hottest 12.5% of tasks should receive close to HotWeight + their
	// uniform share of the traffic.
	sorted := append([]int(nil), counts...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	hot := 0
	for i := 0; i < T/8; i++ {
		hot += sorted[i]
	}
	share := float64(hot) / float64(len(s.Flows))
	if share < 0.4 {
		t.Errorf("hot 12.5%% of tasks got only %.2f of traffic", share)
	}
}

func TestMgntHasHeavyTail(t *testing.T) {
	s := gen(t, UnstructuredMgnt, Params{Tasks: 500, Seed: 4})
	var min, max float64
	min = s.Flows[0].Bytes
	for _, f := range s.Flows {
		if f.Bytes < min {
			min = f.Bytes
		}
		if f.Bytes > max {
			max = f.Bytes
		}
	}
	if max/min < 100 {
		t.Errorf("size distribution not heavy-tailed: min %g max %g", min, max)
	}
}

func TestNoSelfFlowsInRandomWorkloads(t *testing.T) {
	for _, k := range []Kind{UnstructuredApp, UnstructuredMgnt, UnstructuredHR, Bisection} {
		s := gen(t, k, Params{Tasks: 64, Seed: 5})
		for i, f := range s.Flows {
			if f.Src == f.Dst {
				t.Fatalf("%s: self flow %d at task %d", k, i, f.Src)
			}
		}
	}
}

func TestEndToEndSimulation(t *testing.T) {
	// Every workload must run to completion on a small torus.
	tor, err := torus.New(grid.Shape{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		s := gen(t, k, Params{Tasks: 64, Seed: 6, MsgBytes: 1e5})
		res, err := flow.Simulate(tor, s, flow.Options{RelEpsilon: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: makespan %g", k, res.Makespan)
		}
	}
}

func TestSweepIsMoreSerialThanNearNeighbors(t *testing.T) {
	// Sanity: causality makes Sweep3D far less concurrent than the
	// all-at-once stencil on the same grid and message size.
	tor, err := torus.New(grid.Shape{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	sweep := gen(t, Sweep3D, Params{Tasks: 64, MsgBytes: 1e6})
	nn := gen(t, NearNeighbors, Params{Tasks: 64, MsgBytes: 1e6, Rounds: 1})
	rs, err := flow.Simulate(tor, sweep, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := flow.Simulate(tor, nn, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	perFlowSweep := rs.Makespan / float64(len(sweep.Flows))
	perFlowNN := rn.Makespan / float64(len(nn.Flows))
	if perFlowSweep <= perFlowNN {
		t.Errorf("sweep per-flow time %g should exceed stencil %g", perFlowSweep, perFlowNN)
	}
}

func TestParseKind(t *testing.T) {
	k, err := ParseKind(" AllReduce ")
	if err != nil || k != AllReduce {
		t.Fatalf("ParseKind(AllReduce) = %v, %v", k, err)
	}
	if _, err := ParseKind("nosuchworkload"); err == nil {
		t.Fatal("unknown kind accepted")
	} else {
		for _, valid := range Kinds() {
			if !strings.Contains(err.Error(), string(valid)) {
				t.Fatalf("error %q does not list %q", err, valid)
			}
		}
	}
}
