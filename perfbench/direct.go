package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mtier/internal/core"
	"mtier/internal/obs"
	"mtier/internal/place"
	"mtier/internal/topo"
	"mtier/internal/trace"
	"mtier/internal/workload"
)

// directBench drives closed-system cells straight through core.RunContext
// with one caller: paper-131k and epoch-heavy.
type directBench struct {
	cells []cell
	// shared builds each distinct topology once per set-up round, as
	// sweeps do; otherwise every op builds its own.
	shared bool
	minOps int
	seed   int64
	chk    *checker
	// reg receives the engine's counters on traced ops only.
	reg  *obs.Registry
	tops map[core.TopoSpec]topo.Topology
}

func (b *directBench) registry() *obs.Registry { return b.reg }

func (b *directBench) close() {}

// setUp builds the shared topologies and runs one untimed, checked
// warm-up pass over the cells.
func (b *directBench) setUp(ctx context.Context) error {
	b.tops = nil
	if b.shared {
		b.tops = map[core.TopoSpec]topo.Topology{}
		for _, c := range b.cells {
			spec := topoSpecOf(c.cfg)
			if _, ok := b.tops[spec]; ok {
				continue
			}
			t, err := core.Build(spec)
			if err != nil {
				return fmt.Errorf("building %+v: %w", spec, err)
			}
			b.tops[spec] = t
		}
	}
	for _, i := range order(b.seed, "warmup", 0, len(b.cells)) {
		b.op(ctx, b.cells[i], nil)
	}
	return nil
}

// op runs one cell and checks it; the time covers the call through the
// verified result. With a tally the op is traced.
func (b *directBench) op(ctx context.Context, c cell, t *tally) (float64, bool) {
	cfg := c.cfg
	var rec *trace.Recorder
	if t != nil {
		rec = trace.NewRecorder()
		cfg.Sim.Tracer, cfg.Sim.Metrics = rec, b.reg
	}
	start := time.Now()
	res, err := core.RunContext(ctx, cfg, b.tops[topoSpecOf(cfg)])
	recStart := time.Now()
	var got outcome
	if err == nil {
		got, err = recordOutcome(res.Record())
	}
	end := time.Now()
	ok := b.chk.check(c.id, got, err)
	secs := end.Sub(start).Seconds()
	if t != nil {
		t.addOp(c.id, secs, end.Sub(recStart).Seconds(), rec)
	}
	return secs, ok
}

// measure runs whole passes of the seeded sequence until d has elapsed
// and at least minOps ops were attempted. It returns the verified ops'
// times and the window's length in seconds. Each op starts on a freshly
// collected heap, so no op pays for the previous op's garbage.
func (b *directBench) measure(ctx context.Context, d time.Duration, t *tally, endPass func()) ([]float64, float64) {
	var samples []float64
	start := time.Now()
	for pass, ops := 0, 0; time.Since(start) < d || ops < b.minOps; pass++ {
		for _, i := range order(b.seed, "ops", pass, len(b.cells)) {
			runtime.GC()
			if s, ok := b.op(ctx, b.cells[i], t); ok {
				samples = append(samples, s)
			}
			ops++
		}
		endPass()
	}
	return samples, time.Since(start).Seconds()
}

// attribute splits core.workload, which covers generation and placement,
// by timing direct calls for each traced cell.
func (b *directBench) attribute(_ context.Context, t *tally) error {
	for _, c := range b.cells {
		n := t.cells[c.id]
		if n == 0 {
			continue
		}
		gen, plc, err := timeWorkload(c.cfg)
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.id, err)
		}
		t.add("workload.gen", gen, n)
		t.add("place", plc, n)
	}
	return nil
}

// timeWorkload times workload.Generate and place.Mapping+Apply for a
// cell, resolving defaults as core.RunContext does.
func timeWorkload(cfg core.Config) (gen, plc float64, err error) {
	p := cfg.Params
	if p.Tasks == 0 {
		p.Tasks = core.DefaultTasks(cfg.Workload, cfg.Endpoints)
	}
	if p.MsgBytes == 0 {
		p.MsgBytes = core.DefaultMsgBytes(cfg.Workload)
	}
	pol := cfg.Placement
	if pol == "" {
		pol = place.Strided
		if p.Tasks == cfg.Endpoints {
			pol = place.Linear
		}
	}
	t0 := time.Now()
	spec, err := workload.Generate(cfg.Workload, p)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	m, err := place.Mapping(pol, p.Tasks, cfg.Endpoints, p.Seed)
	if err != nil {
		return 0, 0, err
	}
	if _, err := place.Apply(spec, m); err != nil {
		return 0, 0, err
	}
	return t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), nil
}
