package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"mtier/internal/core"
	"mtier/internal/obs"
	"mtier/internal/trace"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of untraced runs, as a user of the simulator
// sees them. All are host wall time or memory.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"op_s_p90", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named by module. Times and
// counts are means per traced op.
var perLayer = []metricDef{
	{"core.build_s", "s/op"},
	{"core.builds", "count/op"},
	{"fault.gen_s", "s/op"},
	{"fault.detour_routes", "count/op"},
	{"fault.candidate_reroutes", "count/op"},
	{"workload.gen_s", "s/op"},
	{"place.s", "s/op"},
	{"flow.prepare_s", "s/op"},
	{"flow.run_s", "s/op"},
	{"flow.waterfill_s", "s/op"},
	{"flow.advance_s", "s/op"},
	{"flow.epochs", "count/op"},
	{"flow.waterfill.full", "count/op"},
	{"flow.waterfill.incremental", "count/op"},
	{"flow.waterfill.affected_flows", "count/op"},
	{"flow.waterfill.filled_links", "count/op"},
	{"flow.affected_per_epoch", "ratio"},
	{"flow.shard.routes", "count/op"},
	{"flow.shard.fills", "count/op"},
	{"flow.shard.batches", "count/op"},
	{"flow.shard.scans", "count/op"},
	{"flow.shard.sorts", "count/op"},
	{"obs.fingerprint_s", "s/op"},
	{"serve.overhead_s", "s/op"},
	{"serve.requests", "count/op"},
	{"serve.rejected", "count/op"},
	{"cache.topo.hits", "count/op"},
	{"cache.topo.misses", "count/op"},
	{"cache.hit_ratio", "ratio"},
	{"sched.open_s", "s/op"},
	{"mem.alloc_mb_per_op", "MB/op"},
	{"mem.mallocs_per_op", "count/op"},
	{"gc.cycles_per_op", "count/op"},
	{"gc.pause_s_per_op", "s/op"},
	{"trace.overhead_frac", "ratio"},
	{"trace.ops", "count"},
}

// tally accumulates the traced pass: per-layer seconds summed over its
// ops (keyed by span name), the ops per cell, the topologies of requests
// that missed the cache, and a per-op span log.
type tally struct {
	mu     sync.Mutex
	ops    int
	opSecs float64
	layer  map[string]float64
	layerN map[string]int
	cells  map[string]int
	misses map[core.TopoSpec]int
	log    []opSpans
}

// opSpans is one traced op in the span log.
type opSpans struct {
	Op    int                `json:"op"`
	Cell  string             `json:"cell"`
	S     float64            `json:"s"`
	Cache string             `json:"cache,omitempty"`
	Spans map[string]spanSum `json:"spans,omitempty"`
}

type spanSum struct {
	N int     `json:"n"`
	S float64 `json:"s"`
}

func newTally() *tally {
	return &tally{
		layer:  map[string]float64{},
		layerN: map[string]int{},
		cells:  map[string]int{},
		misses: map[core.TopoSpec]int{},
	}
}

// add charges n ops with secs each to a layer. Not locked: attribution
// runs after the traced pass.
func (t *tally) add(layer string, secs float64, n int) {
	t.layer[layer] += secs * float64(n)
	t.layerN[layer] += n
}

// sumSpans totals a recorder's wall-clock spans by name.
func sumSpans(rec *trace.Recorder) map[string]spanSum {
	out := map[string]spanSum{}
	for _, e := range rec.Events() {
		if e.PID != trace.WallPID || e.Ph != "X" {
			continue
		}
		s := out[e.Name]
		s.N++
		s.S += e.Dur / 1e6
		out[e.Name] = s
	}
	return out
}

// addOp records one traced direct op: its time, the record check's time
// and the engine's spans.
func (t *tally) addOp(id string, secs, recordSecs float64, rec *trace.Recorder) {
	spans := sumSpans(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.opSecs += secs
	t.cells[id]++
	t.layer["obs.record"] += recordSecs
	for name, s := range spans {
		t.layer[name] += s.S
		t.layerN[name] += s.N
	}
	t.log = append(t.log, opSpans{Op: len(t.log), Cell: id, S: secs, Spans: spans})
}

// addRequest records one traced service request.
func (t *tally) addRequest(r request, cache string, secs, recordSecs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.opSecs += secs
	t.cells[r.id]++
	t.layer["obs.record"] += recordSecs
	if cache == "miss" {
		t.misses[r.topo]++
	}
	t.log = append(t.log, opSpans{Op: len(t.log), Cell: r.id, S: secs, Cache: cache})
}

// regDelta is what a registry counted during the traced pass.
type regDelta struct {
	counters map[string]int64
	runSum   float64
	runCount int64
}

func diffRegistry(before, after obs.RegistrySnapshot) regDelta {
	d := regDelta{counters: map[string]int64{}}
	for name, v := range after.Counters {
		d.counters[name] = v - before.Counters[name]
	}
	a, b := after.Histograms["serve.run_seconds"], before.Histograms["serve.run_seconds"]
	d.runSum, d.runCount = a.Sum-b.Sum, a.Count-b.Count
	return d
}

// memDelta is the Go runtime's work during the traced pass.
type memDelta struct {
	allocBytes, mallocs, gcs uint64
	pauseNs                  uint64
}

func diffMem(before, after *runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcs:        uint64(after.NumGC - before.NumGC),
		pauseNs:    after.PauseTotalNs - before.PauseTotalNs,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced pass. mem is
// the runtime's work over memOps untraced ops; untracedP50 and tracedP50
// are the op medians without and with hooks.
func layerMetrics(t *tally, reg regDelta, mem memDelta, memOps int, untracedP50, tracedP50 float64) map[string]float64 {
	n := float64(t.ops)
	mn := float64(memOps)
	per := func(layer string) float64 { return t.layer[layer] / n }
	count := func(name string) float64 { return float64(reg.counters[name]) / n }
	rejected := 0.0
	for name, v := range reg.counters {
		if strings.HasPrefix(name, "serve.rejected_") {
			rejected += float64(v)
		}
	}
	// The service's overhead is the client's round trip, less the
	// client's own record check, less the server's run time.
	overhead := 0.0
	if reg.runCount > 0 {
		overhead = t.opSecs/n - per("obs.record") - reg.runSum/float64(reg.runCount)
	}
	hits, misses := count("cache.topo.hits"), count("cache.topo.misses")
	m := map[string]float64{
		"core.build_s":                  per("core.build"),
		"core.builds":                   float64(t.layerN["core.build"]) / n,
		"fault.gen_s":                   per("core.faults"),
		"fault.detour_routes":           count("fault.detour_routes"),
		"fault.candidate_reroutes":      count("fault.candidate_reroutes"),
		"workload.gen_s":                per("workload.gen"),
		"place.s":                       per("place"),
		"flow.prepare_s":                per("flow.prepare"),
		"flow.run_s":                    per("flow.run"),
		"flow.waterfill_s":              per("flow.waterfill"),
		"flow.advance_s":                per("flow.run") - per("flow.waterfill"),
		"flow.epochs":                   count("flow.epochs"),
		"flow.waterfill.full":           count("flow.waterfill.full"),
		"flow.waterfill.incremental":    count("flow.waterfill.incremental"),
		"flow.waterfill.affected_flows": count("flow.waterfill.affected_flows"),
		"flow.waterfill.filled_links":   count("flow.waterfill.filled_links"),
		"flow.affected_per_epoch":       ratio(count("flow.waterfill.affected_flows"), count("flow.epochs")),
		"flow.shard.routes":             count("flow.shard.routes"),
		"flow.shard.fills":              count("flow.shard.fills"),
		"flow.shard.batches":            count("flow.shard.batches"),
		"flow.shard.scans":              count("flow.shard.scans"),
		"flow.shard.sorts":              count("flow.shard.sorts"),
		"obs.fingerprint_s":             per("obs.record"),
		"serve.overhead_s":              overhead,
		"serve.requests":                count("serve.admitted") + rejected/n,
		"serve.rejected":                rejected / n,
		"cache.topo.hits":               hits,
		"cache.topo.misses":             misses,
		"cache.hit_ratio":               ratio(hits, hits+misses),
		"sched.open_s":                  per("sched.open"),
		"mem.alloc_mb_per_op":           float64(mem.allocBytes) / 1e6 / mn,
		"mem.mallocs_per_op":            float64(mem.mallocs) / mn,
		"gc.cycles_per_op":              float64(mem.gcs) / mn,
		"gc.pause_s_per_op":             float64(mem.pauseNs) / 1e9 / mn,
		"trace.overhead_frac":           tracedP50/untracedP50 - 1,
		"trace.ops":                     n,
	}
	return m
}

// selfTimeRows are the layers of the printed table: each layer's self
// time per op. flow.run is split into waterfill and the advance between
// waterfills.
var selfTimeRows = []struct{ layer, metric string }{
	{"core (build)", "core.build_s"},
	{"fault", "fault.gen_s"},
	{"workload", "workload.gen_s"},
	{"place", "place.s"},
	{"flow (prepare)", "flow.prepare_s"},
	{"flow (waterfill)", "flow.waterfill_s"},
	{"flow (advance)", "flow.advance_s"},
	{"obs (record)", "obs.fingerprint_s"},
	{"serve", "serve.overhead_s"},
	{"sched", "sched.open_s"},
}

// printLayerTable writes the traced run's per-layer table: self time per
// op, share of the mean op time, and the counts.
func printLayerTable(w io.Writer, name string, t *tally, m map[string]float64) {
	opMean := t.opSecs / float64(t.ops)
	fmt.Fprintf(w, "layer table: %s, %d traced ops, mean op %.6f s\n", name, t.ops, opMean)
	fmt.Fprintf(w, "  %-18s %-20s %12s %8s\n", "layer", "metric", "s/op", "share")
	rest := opMean
	for _, r := range selfTimeRows {
		v := m[r.metric]
		rest -= v
		fmt.Fprintf(w, "  %-18s %-20s %12.6f %7.1f%%\n", r.layer, r.metric, v, 100*v/opMean)
	}
	fmt.Fprintf(w, "  %-18s %-20s %12.6f %7.1f%%\n", "other", "(unattributed)", rest, 100*rest/opMean)
	for _, d := range perLayer {
		if d.unit == "s/op" {
			continue
		}
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.name, m[d.name], d.unit)
	}
}

// writeSpanLog writes the traced ops' span summaries, one JSON line per
// op.
func writeSpanLog(path string, log []opSpans) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range log {
		if err := enc.Encode(&log[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
