// Package place maps application tasks onto machine endpoints — the
// "mapping" stage of INRFlow's scheduling pipeline. Workload generators
// emit flows between task ids; Apply rewrites them onto endpoints.
//
// Because the hybrid topologies number QFDBs subtorus-major, the Linear
// policy is also the locality-preserving "blocked" placement (consecutive
// tasks fill one subtorus before spilling into the next), Strided spreads
// consecutive tasks as far apart as possible, and Random models a
// fragmented machine.
package place

import (
	"fmt"
	"strings"

	"mtier/internal/flow"
	"mtier/internal/xrand"
)

// Policy names a task-to-endpoint mapping strategy.
type Policy string

const (
	// Linear assigns task i to endpoint i (blocked, locality-preserving).
	Linear Policy = "linear"
	// Strided assigns task i to endpoint i*(endpoints/tasks), spreading
	// tasks uniformly over the machine.
	Strided Policy = "strided"
	// Random assigns tasks to uniformly random distinct endpoints.
	Random Policy = "random"
)

// Policies lists the supported mapping strategies.
func Policies() []Policy { return []Policy{Linear, Strided, Random} }

// ParsePolicy validates a user-supplied placement name. The empty string
// is returned unchanged: it means "choose automatically" at the core
// layer. Unknown names fail with the list of valid policies.
func ParsePolicy(s string) (Policy, error) {
	p := Policy(strings.ToLower(strings.TrimSpace(s)))
	if p == "" {
		return "", nil
	}
	for _, valid := range Policies() {
		if p == valid {
			return p, nil
		}
	}
	names := make([]string, len(Policies()))
	for i, valid := range Policies() {
		names[i] = string(valid)
	}
	return "", fmt.Errorf("place: unknown policy %q (valid: %s)", s, strings.Join(names, ", "))
}

// Mapping builds a task→endpoint map for the given policy. tasks must not
// exceed endpoints; every task gets a distinct endpoint.
func Mapping(p Policy, tasks, endpoints int, seed int64) ([]int32, error) {
	if tasks < 1 {
		return nil, fmt.Errorf("place: need at least one task, got %d", tasks)
	}
	if tasks > endpoints {
		return nil, fmt.Errorf("place: %d tasks exceed %d endpoints", tasks, endpoints)
	}
	m := make([]int32, tasks)
	switch p {
	case Linear:
		for i := range m {
			m[i] = int32(i)
		}
	case Strided:
		stride := endpoints / tasks
		for i := range m {
			m[i] = int32(i * stride)
		}
	case Random:
		perm := xrand.New(seed).Split("place").Perm(endpoints)
		for i := range m {
			m[i] = int32(perm[i])
		}
	default:
		return nil, fmt.Errorf("place: unknown policy %q", p)
	}
	return m, nil
}

// Apply rewrites a task-indexed spec into an endpoint-indexed spec using
// the mapping. Only the endpoints change: every other field, the release
// time included, is copied, and dependency lists are shared with the
// input (they reference flow ids, which do not change).
func Apply(spec *flow.Spec, mapping []int32) (*flow.Spec, error) {
	out := &flow.Spec{Flows: make([]flow.Flow, len(spec.Flows))}
	for i, f := range spec.Flows {
		if int(f.Src) >= len(mapping) || int(f.Dst) >= len(mapping) || f.Src < 0 || f.Dst < 0 {
			return nil, fmt.Errorf("place: flow %d references task outside the mapping (%d -> %d)", i, f.Src, f.Dst)
		}
		f.Src, f.Dst = mapping[f.Src], mapping[f.Dst]
		out.Flows[i] = f
	}
	return out, nil
}
