// Package obs is the observability layer of the simulator: a small,
// pure-stdlib toolkit that the engine, the experiment drivers and the
// command-line binaries share to explain *why* a run behaved the way it
// did, not just what number it produced.
//
// It has three parts:
//
//   - a metrics Registry of named counters, gauges and histograms with
//     fixed log-spaced buckets, exportable as JSON or CSV;
//   - a RunRecord, the self-describing JSON document every simulation can
//     emit (full config, topology invariants, results, phase timings and
//     environment) so experiments stay diffable across revisions;
//   - a ProgressMeter for long sweeps and ProfileFlags for wiring the
//     standard pprof/trace outputs into every binary.
//
// The package deliberately imports nothing from the rest of the module so
// any layer — flow, core, cmd — can depend on it without cycles.
package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by d (d must be non-negative; negative deltas
// are ignored to keep the counter monotone).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed log-spaced buckets. The
// bucket layout is immutable after construction, so concurrent Observe
// calls only contend on the per-histogram mutex, and snapshots from
// different runs with the same layout are directly comparable.
type Histogram struct {
	mu sync.Mutex
	// bounds[i] is the inclusive upper bound of bucket i; counts has one
	// extra overflow bucket at the end.
	bounds []float64
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Default histogram layout: 8 buckets per decade spanning [1e-9, 1e6).
// That covers nanosecond-scale epoch costs up to multi-day makespans with
// ~33% relative bucket width.
const (
	histMin       = 1e-9
	histDecades   = 15
	histPerDecade = 8
)

func newHistogram() *Histogram {
	n := histDecades * histPerDecade
	h := &Histogram{
		bounds: make([]float64, n),
		counts: make([]int64, n+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
	for i := range h.bounds {
		h.bounds[i] = histMin * math.Pow(10, float64(i+1)/histPerDecade)
	}
	return h
}

// bucket returns the index of the bucket holding v.
func (h *Histogram) bucket(v float64) int {
	if v <= histMin {
		return 0
	}
	// log-spaced: idx = floor(log10(v/min) * perDecade); clamp + verify
	// against the precomputed bounds to dodge floating-point edge cases.
	i := int(math.Log10(v/histMin) * histPerDecade)
	if i < 0 {
		i = 0
	}
	if i >= len(h.bounds) {
		return len(h.bounds) // overflow bucket
	}
	for i > 0 && v <= h.bounds[i-1] {
		i--
	}
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	h.counts[h.bucket(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarises the histogram. Quantiles are bucket upper bounds
// (conservative over-estimates bounded by the bucket width).
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.Min = h.min
	s.Max = h.max
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) as a bucket upper bound.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i < len(h.bounds) {
				// Never report beyond the observed extrema.
				return math.Min(h.bounds[i], h.max)
			}
			return h.max
		}
	}
	return h.max
}

// Registry is a concurrency-safe collection of named metrics. Metric
// accessors create on first use, so instrumented code needs no
// registration ceremony.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// RegistrySnapshot is the exportable state of a registry. Maps marshal
// with sorted keys, so the JSON form is deterministic.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteCSV writes one row per metric: kind,name,count,sum,mean,min,max,
// p50,p90,p99 (counters fill count only, gauges fill mean only). Rows are
// sorted by kind then name for deterministic output.
func (r *Registry) WriteCSV(w io.Writer) error {
	s := r.Snapshot()
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"kind", "name", "count", "sum", "mean", "min", "max", "p50", "p90", "p99"}); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, n := range sortedKeys(s.Counters) {
		if err := cw.Write([]string{"counter", n, strconv.FormatInt(s.Counters[n], 10), "", "", "", "", "", "", ""}); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Gauges) {
		if err := cw.Write([]string{"gauge", n, "", "", ff(s.Gauges[n]), "", "", "", "", ""}); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		row := []string{"histogram", n, strconv.FormatInt(h.Count, 10),
			ff(h.Sum), ff(h.Mean), ff(h.Min), ff(h.Max), ff(h.P50), ff(h.P90), ff(h.P99)}
		if h.Count == 0 {
			row = []string{"histogram", n, "0", "0", "0", "", "", "", "", ""}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
