// Package workload generates the eleven application-inspired traffic
// models of the paper's evaluation as flow DAGs (flow.Spec values whose
// Src/Dst fields are *task ids*; the place package maps tasks onto
// endpoints before simulation).
//
// The paper splits them into heavy workloads — long periods of congestion
// with a large fraction of endpoints injecting at once (UnstructuredApp,
// UnstructuredHR, Bisection, AllReduce, n-Bodies, NearNeighbors) — and
// light workloads, where inter-message causality limits concurrency
// (UnstructuredMgnt, MapReduce, Reduce, Flood, Sweep3D).
package workload

import (
	"fmt"
	"strings"

	"mtier/internal/flow"
	"mtier/internal/grid"
	"mtier/internal/xrand"
)

// Kind names a workload model.
type Kind string

// The eleven workloads of the paper (§4.1).
const (
	Reduce           Kind = "reduce"
	AllReduce        Kind = "allreduce"
	MapReduce        Kind = "mapreduce"
	Sweep3D          Kind = "sweep3d"
	Flood            Kind = "flood"
	NearNeighbors    Kind = "nearneighbors"
	NBodies          Kind = "nbodies"
	UnstructuredApp  Kind = "unstructuredapp"
	UnstructuredMgnt Kind = "unstructuredmgnt"
	UnstructuredHR   Kind = "unstructuredhr"
	Bisection        Kind = "bisection"
)

// Kinds returns every workload, heavy first, in the paper's figure order.
func Kinds() []Kind {
	return append(HeavyKinds(), LightKinds()...)
}

// HeavyKinds returns the workloads of Figure 4.
func HeavyKinds() []Kind {
	return []Kind{UnstructuredApp, UnstructuredHR, Bisection, AllReduce, NBodies, NearNeighbors}
}

// LightKinds returns the workloads of Figure 5.
func LightKinds() []Kind {
	return []Kind{UnstructuredMgnt, MapReduce, Reduce, Flood, Sweep3D}
}

// IsHeavy reports whether k belongs to the heavy (Figure 4) set.
func IsHeavy(k Kind) bool {
	for _, h := range HeavyKinds() {
		if h == k {
			return true
		}
	}
	return false
}

// ParseKind validates a user-supplied workload name (as given to the
// -workload flags). The error lists every valid kind, so misspellings
// fail at the flag layer instead of deep inside a sweep.
func ParseKind(s string) (Kind, error) {
	k := Kind(strings.ToLower(strings.TrimSpace(s)))
	for _, valid := range Kinds() {
		if k == valid {
			return k, nil
		}
	}
	names := make([]string, len(Kinds()))
	for i, valid := range Kinds() {
		names[i] = string(valid)
	}
	return "", fmt.Errorf("workload: unknown kind %q (valid: %s)", s, strings.Join(names, ", "))
}

// Params configures a generator. Zero fields take the documented defaults.
// The JSON tags define how parameters appear inside a run record.
type Params struct {
	// Tasks is the number of application tasks (required, >= 2).
	Tasks int `json:"tasks"`
	// MsgBytes is the base message size. Default 1 MB.
	MsgBytes float64 `json:"msg_bytes"`
	// Seed drives all randomness. The same (Kind, Params) always yields
	// the same DAG.
	Seed int64 `json:"seed"`
	// Rounds is the iteration count of NearNeighbors and Bisection.
	// Defaults: 2 and 4.
	Rounds int `json:"rounds,omitempty"`
	// Wavefronts is the number of pipelined fronts in Flood. Default 4.
	Wavefronts int `json:"wavefronts,omitempty"`
	// FlowsPerTask is the fan-out of the unstructured generators. Default 4.
	FlowsPerTask int `json:"flows_per_task,omitempty"`
	// HotFraction is the share of tasks that form the hot set of
	// UnstructuredHR. Default 0.125.
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// HotWeight is the probability that an UnstructuredHR message targets
	// the hot set. Default 0.5.
	HotWeight float64 `json:"hot_weight,omitempty"`
	// ChainLength is the sequential chain length of UnstructuredMgnt.
	// Default 4.
	ChainLength int `json:"chain_length,omitempty"`
}

func (p Params) withDefaults() Params {
	if p.MsgBytes == 0 {
		p.MsgBytes = 1e6
	}
	if p.Rounds == 0 {
		p.Rounds = 0 // per-workload below
	}
	if p.Wavefronts == 0 {
		p.Wavefronts = 4
	}
	if p.FlowsPerTask == 0 {
		p.FlowsPerTask = 4
	}
	if p.HotFraction == 0 {
		p.HotFraction = 0.125
	}
	if p.HotWeight == 0 {
		p.HotWeight = 0.5
	}
	if p.ChainLength == 0 {
		p.ChainLength = 4
	}
	return p
}

func (p Params) validate() error {
	if p.Tasks < 2 {
		return fmt.Errorf("workload: need at least 2 tasks, got %d", p.Tasks)
	}
	if p.MsgBytes < 0 {
		return fmt.Errorf("workload: negative message size %g", p.MsgBytes)
	}
	if p.HotFraction < 0 || p.HotFraction > 1 || p.HotWeight < 0 || p.HotWeight > 1 {
		return fmt.Errorf("workload: hot parameters out of [0,1]")
	}
	return nil
}

// Generate builds the flow DAG for workload k. Flow endpoints are task ids
// in [0, p.Tasks).
func Generate(k Kind, p Params) (*flow.Spec, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch k {
	case Reduce:
		return genReduce(p), nil
	case AllReduce:
		return genAllReduce(p), nil
	case MapReduce:
		return genMapReduce(p), nil
	case Sweep3D:
		return genSweep3D(p), nil
	case Flood:
		return genFlood(p), nil
	case NearNeighbors:
		return genNearNeighbors(p), nil
	case NBodies:
		return genNBodies(p), nil
	case UnstructuredApp:
		return genUnstructuredApp(p), nil
	case UnstructuredMgnt:
		return genUnstructuredMgnt(p), nil
	case UnstructuredHR:
		return genUnstructuredHR(p), nil
	case Bisection:
		return genBisection(p), nil
	default:
		return generateExtended(k, p)
	}
}

// genReduce models the non-optimised N-to-1 collective: every task sends to
// the root at once, creating the paper's pathological hot spot.
func genReduce(p Params) *flow.Spec {
	s := &flow.Spec{}
	for t := 1; t < p.Tasks; t++ {
		s.Add(t, 0, p.MsgBytes)
	}
	return s
}

// genAllReduce models the optimised logarithmic collective (recursive
// doubling): log2(T) rounds; in round r task i exchanges with i XOR 2^r.
// A task's round-r send waits for its round-(r-1) receive.
//
// At the paper's scale that is 2.2M flows, so the flow list is sized up
// front and every one-element dependency list is carved from one shared
// backing array instead of allocated on its own.
func genAllReduce(p Params) *flow.Spec {
	n := allReduceFlows(p.Tasks)
	s := &flow.Spec{Flows: make([]flow.Flow, 0, n)}
	depArena := make([]int32, n)
	lastRecv := make([]int32, p.Tasks)
	for i := range lastRecv {
		lastRecv[i] = -1
	}
	for bit := 1; bit < p.Tasks; bit <<= 1 {
		newRecv := make([]int32, p.Tasks)
		copy(newRecv, lastRecv)
		for i := 0; i < p.Tasks; i++ {
			partner := i ^ bit
			if partner >= p.Tasks || partner == i {
				continue
			}
			var deps []int32
			if lastRecv[i] >= 0 {
				// Full-slice: an append to one flow's Deps must reallocate,
				// not overwrite its neighbour's.
				k := len(s.Flows)
				deps = depArena[k : k+1 : k+1]
				deps[0] = lastRecv[i]
			}
			id := s.Add(i, partner, p.MsgBytes, deps...)
			newRecv[partner] = id
		}
		lastRecv = newRecv
	}
	return s
}

// allReduceFlows is genAllReduce's flow count for T tasks: in the round
// of bit b, task i sends when i XOR b < T. Blocks of 2b consecutive
// tasks pair up completely; in the trailing partial block of r tasks,
// the r-b tasks above its midpoint pair with as many below it.
func allReduceFlows(tasks int) int {
	n := 0
	for bit := 1; bit < tasks; bit <<= 1 {
		n += tasks / (2 * bit) * (2 * bit)
		if r := tasks % (2 * bit); r > bit {
			n += 2 * (r - bit)
		}
	}
	return n
}

// genMapReduce models scatter (root to all), shuffle (all-to-all, gated on
// each mapper's input) and gather (back to the root, gated on each
// reducer's inbound shuffle). Beware: the shuffle is T² flows.
func genMapReduce(p Params) *flow.Spec {
	s := &flow.Spec{}
	scatter := make([]int32, p.Tasks)
	for t := 1; t < p.Tasks; t++ {
		scatter[t] = s.Add(0, t, p.MsgBytes)
	}
	// inbound[t] collects the shuffle flows received by t.
	inbound := make([][]int32, p.Tasks)
	shufBytes := p.MsgBytes / float64(p.Tasks)
	for t := 0; t < p.Tasks; t++ {
		var deps []int32
		if t != 0 {
			deps = []int32{scatter[t]}
		}
		for o := 0; o < p.Tasks; o++ {
			if o == t {
				continue
			}
			id := s.Add(t, o, shufBytes, deps...)
			inbound[o] = append(inbound[o], id)
		}
	}
	for t := 1; t < p.Tasks; t++ {
		s.Add(t, 0, p.MsgBytes, inbound[t]...)
	}
	return s
}

// taskGrid arranges tasks into a near-cubic 3D grid.
func taskGrid(tasks int) grid.Shape {
	f := grid.FactorBalanced(tasks, 3)
	return grid.Shape{f[0], f[1], f[2]}
}

// genSweep3D models the wavefront of the deterministic particle transport
// kernel: the diagonal sweep from one corner of the task grid, each task
// forwarding along +x, +y, +z once all its inbound fronts arrived.
func genSweep3D(p Params) *flow.Spec {
	s := &flow.Spec{}
	g := taskGrid(p.Tasks)
	inbound := make([][]int32, p.Tasks)
	coord := make([]int, 3)
	// Visit tasks in wavefront order: rank order works because inbound
	// flows always come from lexicographically smaller ranks along each
	// axis (no wraparound in the sweep).
	for t := 0; t < p.Tasks; t++ {
		g.CoordInto(t, coord)
		for d := 0; d < 3; d++ {
			if coord[d]+1 >= g[d] {
				continue
			}
			coord[d]++
			n := g.Rank(coord)
			coord[d]--
			id := s.Add(t, n, p.MsgBytes, inbound[t]...)
			inbound[n] = append(inbound[n], id)
		}
	}
	return s
}

// genFlood pipelines several sweep wavefronts from the corner at once;
// front w of a task additionally waits for its own front w-1 send on the
// same edge, which keeps every edge of the grid busy.
func genFlood(p Params) *flow.Spec {
	s := &flow.Spec{}
	g := taskGrid(p.Tasks)
	coord := make([]int, 3)
	prevEdge := make(map[[2]int32]int32) // last front's flow on each edge
	for w := 0; w < p.Wavefronts; w++ {
		// Each wave is a full sweep: in-wave propagation follows rank order
		// (senders always have smaller ranks), successive waves pipeline
		// through the per-edge dependency.
		inbound := make([][]int32, p.Tasks)
		for t := 0; t < p.Tasks; t++ {
			g.CoordInto(t, coord)
			for d := 0; d < 3; d++ {
				if coord[d]+1 >= g[d] {
					continue
				}
				coord[d]++
				n := g.Rank(coord)
				coord[d]--
				deps := append([]int32(nil), inbound[t]...)
				key := [2]int32{int32(t), int32(n)}
				if prev, ok := prevEdge[key]; ok {
					deps = append(deps, prev)
				}
				id := s.Add(t, n, p.MsgBytes, deps...)
				prevEdge[key] = id
				inbound[n] = append(inbound[n], id)
			}
		}
	}
	return s
}

// genNearNeighbors models an iterated 6-point stencil over a periodic 3D
// task grid: every task exchanges with all six neighbours each round, all
// tasks concurrently — the LAMMPS/RegCM pattern.
func genNearNeighbors(p Params) *flow.Spec {
	rounds := p.Rounds
	if rounds <= 0 {
		rounds = 2
	}
	s := &flow.Spec{}
	g := taskGrid(p.Tasks)
	coord := make([]int, 3)
	inbound := make([][]int32, p.Tasks)
	for r := 0; r < rounds; r++ {
		newInbound := make([][]int32, p.Tasks)
		for t := 0; t < p.Tasks; t++ {
			g.CoordInto(t, coord)
			for d := 0; d < 3; d++ {
				if g[d] == 1 {
					continue
				}
				for _, dir := range []int{1, -1} {
					if g[d] == 2 && dir == -1 {
						continue // avoid the duplicate neighbour on 2-rings
					}
					orig := coord[d]
					coord[d] = (orig + dir + g[d]) % g[d]
					n := g.Rank(coord)
					coord[d] = orig
					id := s.Add(t, n, p.MsgBytes, inbound[t]...)
					newInbound[n] = append(newInbound[n], id)
				}
			}
		}
		inbound = newInbound
	}
	return s
}

// genNBodies models the half-ring force exchange: every task starts a
// chain of messages that travels clockwise across half of the virtual
// ring, each hop gated on the previous one.
func genNBodies(p Params) *flow.Spec {
	s := &flow.Spec{}
	steps := p.Tasks / 2
	for start := 0; start < p.Tasks; start++ {
		prev := int32(-1)
		for k := 0; k < steps; k++ {
			src := (start + k) % p.Tasks
			dst := (start + k + 1) % p.Tasks
			var deps []int32
			if prev >= 0 {
				deps = []int32{prev}
			}
			prev = s.Add(src, dst, p.MsgBytes, deps...)
		}
	}
	return s
}

// genUnstructuredApp models an evenly partitioned unstructured application:
// fixed-length messages to uniform random destinations, all concurrent.
func genUnstructuredApp(p Params) *flow.Spec {
	rng := xrand.New(p.Seed).Split("unstructuredapp")
	s := &flow.Spec{}
	for t := 0; t < p.Tasks; t++ {
		for i := 0; i < p.FlowsPerTask; i++ {
			s.Add(t, rng.IntnExcept(p.Tasks, t), p.MsgBytes)
		}
	}
	return s
}

// genUnstructuredMgnt follows the heavy-tailed size mix of datacentre
// management traffic (Kandula et al.): mostly mice with a few elephants,
// sent as a short sequential chain per task so concurrency stays low.
func genUnstructuredMgnt(p Params) *flow.Spec {
	rng := xrand.New(p.Seed).Split("unstructuredmgnt")
	s := &flow.Spec{}
	for t := 0; t < p.Tasks; t++ {
		prev := int32(-1)
		for i := 0; i < p.ChainLength; i++ {
			// ~80% mice around 2 KB, ~20% elephants around MsgBytes.
			var bytes float64
			if rng.Float64() < 0.8 {
				bytes = rng.LogNormal(7.6, 1.0) // median ~2 KB
			} else {
				bytes = p.MsgBytes * rng.LogNormal(0, 0.5)
			}
			var deps []int32
			if prev >= 0 {
				deps = []int32{prev}
			}
			prev = s.Add(t, rng.IntnExcept(p.Tasks, t), bytes, deps...)
		}
	}
	return s
}

// genUnstructuredHR biases destinations towards a hot subset of tasks.
func genUnstructuredHR(p Params) *flow.Spec {
	rng := xrand.New(p.Seed).Split("unstructuredhr")
	s := &flow.Spec{}
	hot := int(float64(p.Tasks) * p.HotFraction)
	if hot < 1 {
		hot = 1
	}
	// The hot set is a random subset, so it spreads over the machine.
	hotSet := rng.Perm(p.Tasks)[:hot]
	for t := 0; t < p.Tasks; t++ {
		for i := 0; i < p.FlowsPerTask; i++ {
			var dst int
			if rng.Float64() < p.HotWeight {
				dst = hotSet[rng.Intn(hot)]
				if dst == t {
					dst = hotSet[(rng.Intn(hot)+1)%hot]
				}
				if dst == t { // hot set of size 1 containing t
					dst = rng.IntnExcept(p.Tasks, t)
				}
			} else {
				dst = rng.IntnExcept(p.Tasks, t)
			}
			s.Add(t, dst, p.MsgBytes)
		}
	}
	return s
}

// genBisection models random pair-wise exchanges, re-pairing every round:
// the classic bisection-bandwidth stress.
func genBisection(p Params) *flow.Spec {
	rounds := p.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	rng := xrand.New(p.Seed).Split("bisection")
	s := &flow.Spec{}
	lastOf := make([][]int32, p.Tasks) // flows of the task's previous round
	for r := 0; r < rounds; r++ {
		perm := rng.Perm(p.Tasks)
		newOf := make([][]int32, p.Tasks)
		for i := 0; i+1 < p.Tasks; i += 2 {
			a, b := perm[i], perm[i+1]
			deps := append(append([]int32(nil), lastOf[a]...), lastOf[b]...)
			f1 := s.Add(a, b, p.MsgBytes, deps...)
			f2 := s.Add(b, a, p.MsgBytes, deps...)
			newOf[a] = []int32{f1, f2}
			newOf[b] = []int32{f1, f2}
		}
		lastOf = newOf
	}
	return s
}
