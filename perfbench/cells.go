package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"mtier/internal/core"
	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/workload"
	"mtier/internal/xrand"
)

// A cell is one closed-system simulation the benchmark runs through
// core.RunContext. id keys its golden outputs.
type cell struct {
	id  string
	cfg core.Config
}

// cellID names a configuration compactly and uniquely within the pools.
func cellID(cfg core.Config) string {
	s := fmt.Sprintf("%s-%d", cfg.Kind, cfg.Endpoints)
	if cfg.T > 0 {
		s += fmt.Sprintf("-t%du%d", cfg.T, cfg.U)
	}
	s += "-" + string(cfg.Workload)
	if cfg.Params.Seed != 1 {
		s += fmt.Sprintf("-seed%d", cfg.Params.Seed)
	}
	if cfg.Faults != nil {
		s += fmt.Sprintf("-faults%g", cfg.Faults.LinkFraction)
	}
	return s
}

func newCell(kind core.TopoKind, n, t, u int, wl workload.Kind, workers int, faults *fault.Spec) cell {
	cfg := core.Config{
		Kind: kind, Endpoints: n,
		Workload: wl,
		Params:   workload.Params{Seed: 1},
		Sim:      flow.Options{Workers: workers},
		Faults:   faults,
	}
	if kind == core.NestGHC || kind == core.NestTree {
		cfg.T, cfg.U = t, u
	}
	return cell{id: cellID(cfg), cfg: cfg}
}

// topoSpecOf lifts the topology a cell runs on out of its config, the
// way core.RunContext assembles it.
func topoSpecOf(cfg core.Config) core.TopoSpec {
	spec := core.TopoSpec{Kind: cfg.Kind, Endpoints: cfg.Endpoints}
	if cfg.Kind == core.NestGHC || cfg.Kind == core.NestTree {
		spec.T, spec.U = cfg.T, cfg.U
	}
	return spec
}

// paperCells is the paper's machine: NestGHC, 131,072 QFDBs, t=4 u=4,
// AllReduce. The record digest equals mtbench's nestghc-131k-allreduce
// regime because Workers is excluded from records.
func paperCells() []cell {
	return []cell{newCell(core.NestGHC, 131072, 4, 4, workload.AllReduce, 2, nil)}
}

// epochFaults is the 1 % random link-fault scenario of the faulted
// epoch-heavy cells.
var epochFaults = &fault.Spec{Model: fault.Random, LinkFraction: 0.01, Seed: 7}

// epochCells are Fig. 4/5 cells at 2,048 endpoints (materialised) with
// many epochs per flow across the four families, a quarter of them on a
// faulted fabric. The costliest cells of the figures (UnstructuredMgnt
// on the hybrids and the torus, about 2-3 s each) are left out so a run
// holds at least 100 ops. Their count, 15, puts the p50 and p90 ranks mid-way
// through one cell's samples, as serveDeck explains.
func epochCells() []cell {
	const n = 2048
	c := func(kind core.TopoKind, wl workload.Kind, faults *fault.Spec) cell {
		return newCell(kind, n, 2, 4, wl, 1, faults)
	}
	return []cell{
		c(core.NestGHC, workload.Bisection, nil),
		c(core.Fattree, workload.Bisection, nil),
		c(core.Fattree, workload.UnstructuredMgnt, nil),
		c(core.NestGHC, workload.UnstructuredApp, nil),
		c(core.NestTree, workload.UnstructuredApp, nil),
		c(core.Torus3D, workload.UnstructuredApp, nil),
		c(core.NestTree, workload.Flood, nil),
		c(core.Fattree, workload.Flood, nil),
		c(core.NestGHC, workload.Sweep3D, nil),
		c(core.NestTree, workload.Sweep3D, nil),
		c(core.Fattree, workload.Sweep3D, nil),
		c(core.NestGHC, workload.UnstructuredApp, epochFaults),
		c(core.Fattree, workload.Bisection, epochFaults),
		c(core.NestTree, workload.Flood, epochFaults),
		c(core.NestGHC, workload.Sweep3D, epochFaults),
	}
}

// A request is one HTTP call of the serve-mixed deck. Experiment
// requests carry the cell they submit; open requests the open run they
// name.
type request struct {
	id   string
	path string
	body []byte
	// topo is the topology the request names.
	topo core.TopoSpec
	cfg  *core.Config
	open *core.OpenRun
}

// serveCacheEntries is the service's topology-cache capacity: the four
// n=512 topologies of the experiment and open requests plus one slot, so
// the miss specs evict each other and build on the request path.
const serveCacheEntries = 5

// openSpecYAML is an open-system spec in the style of
// examples/specs/mixed.yaml, sized for a 512-QFDB torus.
const openSpecYAML = `schema: mtier/workload-spec/v1
seed: %d
aggregate_rate: 400
jobs: 24
duration: 10.0
clients:
  - name: interactive
    rate_fraction: 0.5
    slo_class: critical
    workload: allreduce
    arrival:
      process: poisson
    params:
      tasks: 8
      msg_bytes: 1e6
  - name: batch-train
    rate_fraction: 0.3
    slo_class: batch
    workload: unstructuredapp
    arrival:
      process: gamma
      cv: 2.0
    params:
      tasks: 16
      msg_bytes: 4e6
      flows_per_task: 4
  - name: background-scrub
    rate_fraction: 0.2
    slo_class: background
    workload: flood
    arrival:
      process: weibull
      shape: 0.7
    params:
      tasks: 4
      msg_bytes: 2e6
`

// serveDeck is one pass of a serve-mixed client: 38 experiment requests
// (84 %), 5 cache-miss requests (11 %) and 2 open-system requests (4 %).
// MapReduce and n-Bodies are excluded: their flow counts are quadratic in
// tasks. The deck's size is odd and 0.9 times it ends in a half, so the
// p50 and p90 ranks fall mid-way through one request's samples rather
// than on the boundary between two requests of different cost.
func serveDeck() ([]request, error) {
	var deck []request
	exp := func(c cell) error {
		body, err := json.Marshal(c.cfg)
		if err != nil {
			return fmt.Errorf("encoding %s: %w", c.id, err)
		}
		cfg := c.cfg
		deck = append(deck, request{id: c.id, path: "/v1/experiments", body: body,
			topo: topoSpecOf(cfg), cfg: &cfg})
		return nil
	}
	kinds := []workload.Kind{
		workload.UnstructuredApp, workload.UnstructuredHR, workload.Bisection,
		workload.AllReduce, workload.NearNeighbors, workload.UnstructuredMgnt,
		workload.Reduce, workload.Flood, workload.Sweep3D,
	}
	for _, wl := range kinds {
		for _, kind := range core.TopoKinds() {
			if err := exp(newCell(kind, 512, 2, 4, wl, 1, nil)); err != nil {
				return nil, err
			}
		}
	}
	// Two random-traffic cells again with another workload seed.
	for _, c := range []cell{
		newCell(core.Fattree, 512, 2, 4, workload.UnstructuredApp, 1, nil),
		newCell(core.NestGHC, 512, 2, 4, workload.UnstructuredHR, 1, nil),
	} {
		c.cfg.Params.Seed = 2
		c.id = cellID(c.cfg)
		if err := exp(c); err != nil {
			return nil, err
		}
	}
	// The cache-miss requests: design points outside the four cached
	// topologies, which evict each other from the one spare slot.
	for _, m := range []struct {
		kind core.TopoKind
		t, u int
	}{{core.NestGHC, 4, 2}, {core.NestTree, 4, 2}, {core.NestGHC, 2, 8}, {core.NestTree, 2, 8}, {core.NestGHC, 4, 8}} {
		if err := exp(newCell(m.kind, 512, m.t, m.u, workload.Reduce, 1, nil)); err != nil {
			return nil, err
		}
	}
	for _, seed := range []int{42, 7} {
		body := []byte(fmt.Sprintf(openSpecYAML, seed))
		spec, err := workload.ParseSpec(body)
		if err != nil {
			return nil, fmt.Errorf("open spec seed %d: %w", seed, err)
		}
		topo := core.TopoSpec{Kind: core.Torus3D, Endpoints: 512}
		q := url.Values{}
		q.Set("kind", string(topo.Kind))
		q.Set("endpoints", strconv.Itoa(topo.Endpoints))
		q.Set("shared", "true")
		deck = append(deck, request{
			id:   fmt.Sprintf("open-torus-512-mixed-seed%d", seed),
			path: "/v1/open?" + q.Encode(), body: body, topo: topo,
			open: &core.OpenRun{Topo: topo, Spec: spec, Shared: true, Workers: 1},
		})
	}
	return deck, nil
}

// order is the op order of one pass: a permutation of n items drawn from
// the run seed, split by stream (a client, or the warm-up) and pass. One
// seed always replays the same sequence; every pass covers each item
// once, so every run times the same mix of cells.
func order(seed int64, stream string, pass, n int) []int {
	return xrand.New(seed).Split(stream).SplitN("pass", pass).Perm(n)
}
