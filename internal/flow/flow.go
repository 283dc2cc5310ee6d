// Package flow implements the flow-level network simulation engine, the
// Go equivalent of the INRFlow framework the paper's evaluation runs on.
//
// The model: every link has a capacity; a workload is a DAG of flows
// (source endpoint, destination endpoint, size in bytes) whose edges are
// causal dependencies — a flow is injected only once all its prerequisites
// have completed. Active flows share link bandwidth max-min fairly
// (progressive filling). Time advances from completion epoch to completion
// epoch; the simulation output is the completion time of the whole DAG,
// the figure of merit of the paper's Figures 4 and 5.
//
// Endpoint injection and ejection ports are modelled as dedicated virtual
// links (one in, one out per endpoint) with the same capacity as network
// links, which reproduces the serialisation at the consumption port that
// dominates the paper's Reduce workload.
package flow

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"mtier/internal/obs"
	"mtier/internal/par"
	"mtier/internal/topo"
	"mtier/internal/trace"
)

// DefaultBandwidth is the default link capacity in bytes/second: the
// 10 Gbps transceivers of the QFDBs.
const DefaultBandwidth = 1.25e9

// Flow is one message transfer between two endpoints.
type Flow struct {
	Src, Dst int32
	Bytes    float64
	// Deps lists the flow ids that must complete before this flow is
	// injected.
	Deps []int32
	// Start is a release time in seconds: the flow may not begin moving
	// data before this instant, even once its dependencies complete. Zero
	// (the default) keeps the classic dependency-only semantics. The
	// open-system scheduler uses it to inject whole jobs into a shared
	// fabric at their scheduled start times.
	Start float64
}

// Spec is a workload: a DAG of flows.
type Spec struct {
	Flows []Flow
}

// Add appends a flow and returns its id, for use as a dependency of later
// flows.
func (s *Spec) Add(src, dst int, bytes float64, deps ...int32) int32 {
	id := int32(len(s.Flows))
	s.Flows = append(s.Flows, Flow{Src: int32(src), Dst: int32(dst), Bytes: bytes, Deps: deps})
	return id
}

// AddAt appends a flow released no earlier than `start` seconds and
// returns its id. Alongside Add it lets one Spec interleave several jobs
// on a shared fabric, each gated to its own activation epoch.
func (s *Spec) AddAt(src, dst int, bytes, start float64, deps ...int32) int32 {
	id := int32(len(s.Flows))
	s.Flows = append(s.Flows, Flow{Src: int32(src), Dst: int32(dst), Bytes: bytes, Start: start, Deps: deps})
	return id
}

// TotalBytes sums the sizes of all flows.
func (s *Spec) TotalBytes() float64 {
	t := 0.0
	for i := range s.Flows {
		t += s.Flows[i].Bytes
	}
	return t
}

// Options tunes a simulation run. The zero value is ready to use. The
// JSON tags define how the options appear inside a run record; the
// attached writers and recorders are process-local and excluded.
type Options struct {
	// LinkBandwidth is the capacity of every link in bytes/second.
	// 0 means DefaultBandwidth.
	LinkBandwidth float64 `json:"link_bandwidth,omitempty"`
	// RelEpsilon batches flow completions that fall within a relative
	// window of the earliest one, trading a bounded (~RelEpsilon) error in
	// the makespan for far fewer rate recomputations. 0 means exact
	// simulation; the experiment presets use 0.01.
	RelEpsilon float64 `json:"rel_epsilon,omitempty"`
	// LatencyBase is a fixed startup delay (seconds) added to every flow
	// before its data starts moving (NIC/protocol overhead). Default 0.
	LatencyBase float64 `json:"latency_base,omitempty"`
	// LatencyPerHop adds a delay proportional to the route's network hop
	// count (switch/router traversal). Together with LatencyBase it makes
	// path length matter for fine-grained, causality-bound workloads such
	// as Sweep3D, as in the paper. Default 0 (pure bandwidth model).
	LatencyPerHop float64 `json:"latency_per_hop,omitempty"`
	// RefreshFraction defers the max-min rate recomputation until at least
	// this fraction of the active flows has completed since the last one
	// (recomputation always happens when new flows activate). Between
	// refreshes the previous rates are kept — they remain feasible when
	// flows leave, merely conceding the freed bandwidth until the next
	// refresh, so the result is a slight, bounded over-estimate of the
	// makespan. 0 recomputes every epoch (exact); the experiment presets
	// use 1/16.
	RefreshFraction float64 `json:"refresh_fraction,omitempty"`
	// AdaptiveRouting picks, for each flow at injection time, the
	// least-loaded of the topology's candidate routes (topologies
	// implementing topo.MultiRouter; ignored otherwise). Load is the
	// current number of active flows on the candidate's busiest link.
	AdaptiveRouting bool `json:"adaptive_routing,omitempty"`
	// DisablePorts turns off the injection/ejection port model, leaving
	// only topology links as shared resources.
	DisablePorts bool `json:"disable_ports,omitempty"`
	// Workers bounds the engine's intra-run parallelism: route
	// construction, large waterfill setups, membership batches and
	// active-set scans are sharded across a worker pool (see
	// parallel.go). 0 means GOMAXPROCS; 1 runs the exact serial code
	// path. Results are bit-identical for every value — the parallel
	// stages reproduce the serial engine's arithmetic and orderings
	// exactly — so Workers is process-local tuning: it is excluded from
	// run records and therefore from sweep fingerprints and journal cell
	// keys, and a journal written by a serial run resumes cleanly under
	// a parallel one.
	Workers int `json:"-"`
	// RecordFlowEnds retains each flow's completion time in the result.
	RecordFlowEnds bool `json:"record_flow_ends,omitempty"`
	// Trace, when non-nil, receives one CSV record per completed flow:
	// id,src,dst,bytes,start,end (start is the activation instant, after
	// dependencies and latency). Records are emitted in completion order.
	// The first write error aborts further records and is returned by
	// Simulate, so a full disk cannot silently truncate a trace.
	Trace io.Writer `json:"-"`
	// Tracer, when non-nil, receives flight-recorder events: wall-clock
	// spans around route preparation and every waterfill, per-shard spans
	// from the worker pool, and sim-time epoch counters, bottleneck and
	// fault instants. Export with trace.Recorder.WriteTraceEvents (Chrome
	// trace_event JSON) or, for the per-epoch congestion series, with
	// WriteEpochCSV. The sim-domain events are deterministic for a fixed
	// seed, across repeated runs and across Workers settings.
	Tracer *trace.Recorder `json:"-"`
	// HotspotK, when positive, computes per-link/per-tier hot-spot
	// attribution into Result.Hotspots: the K hottest topology links by
	// time-integrated utilisation plus per-tier utilisation histograms
	// and path composition (topologies implementing topo.Tiered break
	// down by tier; others report one tier). Deterministic for a fixed
	// seed. Zero disables the report.
	HotspotK int `json:"hotspot_k,omitempty"`
	// Metrics, when non-nil, receives the engine's aggregate counters
	// (epochs, full vs. incremental recomputations, dirty-set sizes, links
	// re-waterfilled). Process-local, excluded from run records.
	Metrics *obs.Registry `json:"-"`
	// FaultEvents schedules mid-simulation link failures: at each event's
	// time the listed topology links go down, active flows crossing them
	// are deactivated and re-admitted on a detour route (or reported as
	// disconnected when none survives), and flows injected later route
	// around the dead links. Events must be sorted by non-decreasing
	// time. Requires a topology that implements Rerouter, such as
	// fault.Degraded; see fault.go.
	FaultEvents []FaultEvent `json:"fault_events,omitempty"`
	// exactRecompute disables the incremental engine and rebuilds every
	// touched link's residual capacity, flow count and member list from
	// scratch at each rate recomputation — the original full waterfill,
	// kept as the reference implementation and differential-test oracle
	// (set by tests through export_test.go). The default maintains
	// per-link state persistently and re-waterfills only the dirty
	// connected component of each epoch; the two engines produce
	// bit-identical results (see incremental.go).
	exactRecompute bool
}

// Validate checks the numeric options for values that would silently
// corrupt the simulation (negative or NaN bandwidth, epsilons, latencies).
// Simulate calls it on entry; it is exported so configuration layers can
// fail fast before building topologies and workloads.
func (o *Options) Validate() error {
	if o.LinkBandwidth < 0 || math.IsNaN(o.LinkBandwidth) || math.IsInf(o.LinkBandwidth, 0) {
		return fmt.Errorf("flow: invalid LinkBandwidth %g", o.LinkBandwidth)
	}
	if o.RelEpsilon < 0 || math.IsNaN(o.RelEpsilon) || math.IsInf(o.RelEpsilon, 0) {
		return fmt.Errorf("flow: invalid RelEpsilon %g (want a small non-negative batching window)", o.RelEpsilon)
	}
	if o.RefreshFraction < 0 || o.RefreshFraction > 1 || math.IsNaN(o.RefreshFraction) {
		return fmt.Errorf("flow: RefreshFraction %g out of [0,1]", o.RefreshFraction)
	}
	if o.LatencyBase < 0 || math.IsNaN(o.LatencyBase) || math.IsInf(o.LatencyBase, 0) {
		return fmt.Errorf("flow: invalid LatencyBase %g", o.LatencyBase)
	}
	if o.LatencyPerHop < 0 || math.IsNaN(o.LatencyPerHop) || math.IsInf(o.LatencyPerHop, 0) {
		return fmt.Errorf("flow: invalid LatencyPerHop %g", o.LatencyPerHop)
	}
	if o.Workers < 0 {
		return fmt.Errorf("flow: negative Workers %d", o.Workers)
	}
	if o.HotspotK < 0 {
		return fmt.Errorf("flow: negative HotspotK %d", o.HotspotK)
	}
	for i, ev := range o.FaultEvents {
		if ev.Time < 0 || math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return fmt.Errorf("flow: fault event %d: invalid time %g", i, ev.Time)
		}
		if i > 0 && ev.Time < o.FaultEvents[i-1].Time {
			return fmt.Errorf("flow: fault events out of order: event %d at t=%g before event %d at t=%g",
				i, ev.Time, i-1, o.FaultEvents[i-1].Time)
		}
	}
	return nil
}

// Result reports the outcome of a simulation. The JSON tags define the
// result section of a run record.
type Result struct {
	// Makespan is the completion time of the whole workload, in seconds.
	Makespan float64 `json:"makespan"`
	// FlowEnds holds per-flow completion times when requested.
	FlowEnds []float64 `json:"flow_ends,omitempty"`
	// Epochs is the number of rate recomputations performed.
	Epochs int `json:"epochs"`
	// BytesDelivered is the total traffic volume.
	BytesDelivered float64 `json:"bytes_delivered"`
	// HopBytes is the sum over flows of bytes × network hops traversed —
	// the raw input of dynamic-energy estimation (ports excluded).
	HopBytes float64 `json:"hop_bytes"`
	// MaxLinkUtilization is the busiest topology link's delivered bytes
	// divided by its capacity × makespan (ports excluded).
	MaxLinkUtilization float64 `json:"max_link_utilization"`
	// MeanLinkUtilization averages utilisation over topology links that
	// carried any traffic.
	MeanLinkUtilization float64 `json:"mean_link_utilization"`
	// MaxPortUtilization is the busiest injection/ejection port's
	// utilisation (0 when ports are disabled).
	MaxPortUtilization float64 `json:"max_port_utilization"`
	// Hotspots is the per-link/per-tier hot-spot attribution, present
	// only when Options.HotspotK > 0 (see hotspots.go).
	Hotspots *HotspotReport `json:"hotspots,omitempty"`

	// The remaining fields are only produced by degraded-mode runs (a
	// fault-wrapped topology or Options.FaultEvents); they stay zero —
	// and absent from the JSON form — on pristine fabrics.

	// ReroutedFlows counts flows re-admitted on a detour after a fault
	// event killed a link on their route.
	ReroutedFlows int `json:"rerouted_flows,omitempty"`
	// DisconnectedFlows counts flows whose endpoint pair had no surviving
	// path: they are dropped at injection (or mid-flight at a fault
	// event) and their dependents released, so the rest of the workload
	// still completes.
	DisconnectedFlows int `json:"disconnected_flows,omitempty"`
	// LostBytes is the traffic volume those flows never delivered.
	LostBytes float64 `json:"lost_bytes,omitempty"`
}

// shareHeap is a specialised min-heap of (share, link) pairs for
// progressive filling. It avoids container/heap's interface boxing, which
// dominates the profile on large active sets.
//
// Entries are ordered by share with ties broken on the link id, so the
// ordering is a strict total order. That makes the sequence of pop values
// a pure function of the multiset of entries — independent of insertion
// order and internal heap layout — which is what lets the incremental
// engine recompute only a region of the network and still reproduce the
// reference waterfill's bottleneck sequence bit for bit (see
// incremental.go).
type shareHeap struct {
	share []float64
	link  []int32
}

func (h *shareHeap) reset() {
	h.share = h.share[:0]
	h.link = h.link[:0]
}

// before reports whether entry i sorts strictly before entry j.
func (h *shareHeap) before(i, j int) bool {
	return h.share[i] < h.share[j] || (h.share[i] == h.share[j] && h.link[i] < h.link[j])
}

// push appends and sifts up.
func (h *shareHeap) push(share float64, link int32) {
	h.share = append(h.share, share)
	h.link = append(h.link, link)
	i := len(h.link) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(i, parent) {
			break
		}
		h.share[parent], h.share[i] = h.share[i], h.share[parent]
		h.link[parent], h.link[i] = h.link[i], h.link[parent]
		i = parent
	}
}

// pop removes and returns the minimum entry.
func (h *shareHeap) pop() (float64, int32) {
	top, lnk := h.share[0], h.link[0]
	n := len(h.link) - 1
	h.share[0], h.link[0] = h.share[n], h.link[n]
	h.share, h.link = h.share[:n], h.link[:n]
	h.siftDown(0)
	return top, lnk
}

func (h *shareHeap) siftDown(i int) {
	n := len(h.link)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.before(r, l) {
			m = r
		}
		if !h.before(m, i) {
			return
		}
		h.share[i], h.share[m] = h.share[m], h.share[i]
		h.link[i], h.link[m] = h.link[m], h.link[i]
		i = m
	}
}

// init heapifies the current contents.
func (h *shareHeap) init() {
	for i := len(h.link)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// pendHeap is a binary min-heap of (activation time, flow id) used by the
// latency model. It orders by time alone, so equal times pop in an order
// set by the sift steps, and that order decides which flows activate
// first — hence the completion order, the per-flow trace and the
// summation order of link bytes. push and pop therefore follow
// container/heap's sift steps exactly; the completion-order goldens in
// testdata pin the result.
type pendHeap []pendEntry

type pendEntry struct {
	at float64
	id int32
}

// push adds an entry and sifts it up, as container/heap.Push.
func (h *pendHeap) push(e pendEntry) {
	*h = append(*h, e)
	a := *h
	for j := len(a) - 1; j > 0; {
		i := (j - 1) / 2
		if !(a[j].at < a[i].at) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

// pop removes the minimum entry: it swaps the root with the last entry
// and sifts the new root down over the rest, as container/heap.Pop.
func (h *pendHeap) pop() pendEntry {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].at < a[j].at {
			j = j2
		}
		if !(a[j].at < a[i].at) {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	*h = a[:n]
	return a[n]
}

// sim is the mutable state of one simulation run.
type sim struct {
	t   topo.Topology
	opt Options
	cap float64

	// Cancellation state: ctxDone is nil when the caller's context can
	// never be canceled (context.Background), which reduces the per-epoch
	// cancellation check to a single nil comparison.
	ctx     context.Context
	ctxDone <-chan struct{}

	numEndpoints int
	numTopoLinks int
	numLinks     int // topology links + virtual ports

	routes [][]int32
	flows  []Flow

	indeg      []int32
	childStart []int32
	childList  []int32

	remaining []float64
	rate      []float64
	starts    []float64 // activation instants (trace mode only)
	frozenAt  []int64   // epoch at which the flow's rate was frozen
	ends      []float64

	latency []float64 // per-flow injection latency
	pending pendHeap  // flows waiting out their latency phase

	done int // completed (or lost) flows

	active    []int32
	activePos []int32

	residual  []float64
	count     []int32
	stamp     []int64
	linkFlows [][]int32
	touched   []int32
	epoch     int64

	linkBytes []float64
	heap      shareHeap
	work      workHeap // incremental engine's working heap (see incremental.go)
	dirty     bool     // active set gained flows since the last waterfill

	// Incremental engine state (see incremental.go); nil slices when
	// opt.exactRecompute selects the reference full waterfill.
	inc incState

	// tracing mirrors opt.Tracer != nil for cheap per-epoch checks.
	tracing bool
	// Engine counters (tracked only when opt.Metrics is attached).
	stats *engineStats

	// Intra-run parallelism (see parallel.go). pool is nil when the
	// effective worker count is 1; batching queues membership changes
	// for sharded replay instead of applying them in activate and
	// deactivate.
	pool     *par.Pool
	workers  int
	batching bool
	memOps   []memOp
	parTmin  []float64 // per-shard earliest-completion scratch
	parDone  [][]int32 // per-shard completion buffers

	traceErr error // first Trace write failure; surfaced by run

	// Adaptive routing state.
	mrouter      topo.MultiRouter
	numChoices   int
	activeOnLink []int32 // persistent per-link active-flow counts
	routeScratch []int32

	// Degraded-mode state (see fault.go); all nil/zero on pristine runs.
	ft           FaultTopology // topology reporting disconnection, or nil
	rr           Rerouter      // topology rerouting around dead links, or nil
	lost         []bool        // flows with no surviving route at prepare time
	linkDead     []bool        // per topology link: killed by a fault event
	deadCount    int
	nextEvent    int
	rerouted     int
	lostFlows    int
	lostBytes    float64
	victims      []int32 // scratch: active flows hit by a fault event
	faultScratch []int32 // scratch: reroute buffer

	routeArena arena // backing storage for all route slices
}

// arena hands out int32 sub-slices from large chunks, so building one
// route per flow does not cost one allocation per flow. Chunks are never
// reallocated, so previously returned slices stay valid.
type arena struct {
	chunk []int32
}

func (a *arena) alloc(n int) []int32 {
	if cap(a.chunk)-len(a.chunk) < n {
		size := 1 << 16
		if n > size {
			size = n
		}
		a.chunk = make([]int32, 0, size)
	}
	off := len(a.chunk)
	a.chunk = a.chunk[:off+n]
	// Full-slice so appends on the returned route cannot clobber the
	// arena's next allocation.
	return a.chunk[off : off+n : off+n]
}

// Simulate runs the workload on the topology and returns the result.
func Simulate(t topo.Topology, spec *Spec, opt Options) (*Result, error) {
	return SimulateContext(context.Background(), t, spec, opt)
}

// SimulateContext runs the workload on the topology under a context.
// Cancellation is cooperative: the engine checks the context at every
// epoch boundary (rate recomputations and route preparation batches) and
// returns an error wrapping ctx.Err(), so a canceled or deadline-expired
// simulation stops within one epoch instead of running to completion. A
// background (never-canceled) context costs a single nil check per epoch.
func SimulateContext(ctx context.Context, t topo.Topology, spec *Spec, opt Options) (*Result, error) {
	if opt.LinkBandwidth == 0 {
		opt.LinkBandwidth = DefaultBandwidth
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &sim{t: t, opt: opt, cap: opt.LinkBandwidth, flows: spec.Flows,
		tracing: opt.Tracer != nil,
		ctx:     ctx, ctxDone: ctx.Done()}
	s.workers = opt.Workers
	if s.workers == 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.workers > 1 {
		s.pool = par.NewPool(s.workers)
		defer s.pool.Close()
	}
	sp := opt.Tracer.Begin("flow.prepare", "phase")
	if err := s.prepare(spec); err != nil {
		return nil, err
	}
	sp.EndArgs(map[string]any{"flows": len(spec.Flows), "links": s.numLinks})
	sp = opt.Tracer.Begin("flow.run", "phase")
	res, err := s.run()
	if err != nil {
		return nil, err
	}
	sp.EndArgs(map[string]any{"epochs": res.Epochs})
	opt.Tracer.SimSpan("flow.simulate", "phase", 0, res.Makespan, map[string]any{
		"flows":  len(spec.Flows),
		"epochs": res.Epochs,
	})
	return res, nil
}

// canceled reports whether the run's context has been canceled. It is
// called at epoch boundaries only, never inside the waterfill hot path,
// and compiles down to a nil check when no cancelable context is attached.
func (s *sim) canceled() bool {
	if s.ctxDone == nil {
		return false
	}
	select {
	case <-s.ctxDone:
		return true
	default:
		return false
	}
}

func (s *sim) injectionLink(ep int32) int32 { return int32(s.numTopoLinks) + ep }
func (s *sim) ejectionLink(ep int32) int32 {
	return int32(s.numTopoLinks+s.numEndpoints) + ep
}

func (s *sim) prepare(spec *Spec) error {
	s.numEndpoints = s.t.NumEndpoints()
	s.numTopoLinks = s.t.NumLinks()
	s.numLinks = s.numTopoLinks
	if !s.opt.DisablePorts {
		s.numLinks += 2 * s.numEndpoints
	}
	f := len(spec.Flows)

	s.indeg = make([]int32, f)
	childCount := make([]int32, f)
	for i := range spec.Flows {
		fl := &spec.Flows[i]
		if fl.Src < 0 || int(fl.Src) >= s.numEndpoints || fl.Dst < 0 || int(fl.Dst) >= s.numEndpoints {
			return fmt.Errorf("flow %d: endpoint out of range (%d -> %d)", i, fl.Src, fl.Dst)
		}
		if fl.Bytes < 0 || math.IsNaN(fl.Bytes) || math.IsInf(fl.Bytes, 0) {
			return fmt.Errorf("flow %d: invalid size %g", i, fl.Bytes)
		}
		if fl.Start < 0 || math.IsNaN(fl.Start) || math.IsInf(fl.Start, 0) {
			return fmt.Errorf("flow %d: invalid start time %g", i, fl.Start)
		}
		for _, d := range fl.Deps {
			if d < 0 || int(d) >= f {
				return fmt.Errorf("flow %d: dependency %d out of range", i, d)
			}
			if d == int32(i) {
				return fmt.Errorf("flow %d depends on itself", i)
			}
			s.indeg[i]++
			childCount[d]++
		}
	}
	// CSR adjacency for dependents.
	s.childStart = make([]int32, f+1)
	for i := 0; i < f; i++ {
		s.childStart[i+1] = s.childStart[i] + childCount[i]
	}
	s.childList = make([]int32, s.childStart[f])
	fill := make([]int32, f)
	for i := range spec.Flows {
		for _, d := range spec.Flows[i].Deps {
			s.childList[s.childStart[d]+fill[d]] = int32(i)
			fill[d]++
		}
	}

	// Routes, with virtual ports prepended/appended. In adaptive mode the
	// choice is deferred to injection time, when link loads are known.
	s.routes = make([][]int32, f)
	withLatency := s.opt.LatencyBase > 0 || s.opt.LatencyPerHop > 0
	if withLatency {
		s.latency = make([]float64, f)
	}
	if s.opt.AdaptiveRouting {
		if mr, ok := s.t.(topo.MultiRouter); ok && mr.NumRouteChoices() > 1 {
			s.mrouter = mr
			s.numChoices = mr.NumRouteChoices()
			s.activeOnLink = make([]int32, s.numLinks)
			s.routeScratch = make([]int32, 0, 256)
		}
	}
	if err := s.prepareFaults(); err != nil {
		return err
	}
	switch {
	case s.mrouter != nil:
		// Adaptive mode: routes are chosen lazily by chooseRoute at
		// injection time, when link loads are known.
	case s.pool != nil && f >= parRouteMin:
		if err := s.prepareRoutesParallel(spec, withLatency); err != nil {
			return err
		}
	default:
		scratch := make([]int32, 0, 256)
		for i := range spec.Flows {
			// Route construction dominates prepare on large systems; honour
			// cancellation between batches so a canceled cell never has to
			// finish routing hundreds of thousands of flows first.
			if i&0xfff == 0 && s.canceled() {
				return fmt.Errorf("flow: canceled while preparing routes (%d/%d flows): %w", i, f, s.ctx.Err())
			}
			fl := &spec.Flows[i]
			if s.ft != nil {
				var ok bool
				scratch, ok = s.ft.RouteAppendOK(scratch[:0], int(fl.Src), int(fl.Dst))
				if !ok {
					// No surviving path: the flow is lost at injection time.
					s.markLost(i)
					continue
				}
			} else {
				scratch = s.t.RouteAppend(scratch[:0], int(fl.Src), int(fl.Dst))
			}
			if withLatency {
				s.latency[i] = s.opt.LatencyBase + s.opt.LatencyPerHop*float64(len(scratch))
			}
			s.routes[i] = s.materialiseRoute(fl, scratch)
		}
	}

	s.remaining = make([]float64, f)
	s.rate = make([]float64, f)
	s.frozenAt = make([]int64, f)
	for i := range s.frozenAt {
		s.frozenAt[i] = -1
	}
	s.ends = make([]float64, f)
	if s.opt.Trace != nil {
		s.starts = make([]float64, f)
	}
	s.activePos = make([]int32, f)
	for i := range s.activePos {
		s.activePos[i] = -1
	}

	s.residual = make([]float64, s.numLinks)
	s.count = make([]int32, s.numLinks)
	s.stamp = make([]int64, s.numLinks)
	for i := range s.stamp {
		s.stamp[i] = -1
	}
	s.linkBytes = make([]float64, s.numLinks)
	if s.opt.exactRecompute {
		s.linkFlows = make([][]int32, s.numLinks)
	} else {
		s.inc.init(s.numLinks, f)
	}
	if s.opt.Metrics != nil {
		s.stats = newEngineStats(s.opt.Metrics)
		s.stats.workers.Set(float64(s.workers))
	}
	// Batch membership maintenance for sharded replay; the incremental
	// state is only consulted at fill time, so joins and leaves can be
	// queued until the next flushMembership (fills and fault events).
	s.batching = s.pool != nil && !s.opt.exactRecompute
	return nil
}

// materialiseRoute copies a network path into arena storage, wrapping it
// in the virtual injection/ejection port links unless ports are disabled.
func (s *sim) materialiseRoute(fl *Flow, path []int32) []int32 {
	return s.materialiseRouteIn(&s.routeArena, fl, path)
}

// materialiseRouteIn is materialiseRoute into an explicit arena, so the
// sharded route construction can give each worker its own.
func (s *sim) materialiseRouteIn(a *arena, fl *Flow, path []int32) []int32 {
	if s.opt.DisablePorts {
		r := a.alloc(len(path))
		copy(r, path)
		return r
	}
	r := a.alloc(len(path) + 2)
	r[0] = s.injectionLink(fl.Src)
	copy(r[1:], path)
	r[len(r)-1] = s.ejectionLink(fl.Dst)
	return r
}

// activate inserts a flow into the active set and marks the allocation
// stale: the new flow has no rate yet.
func (s *sim) activate(id int32, now float64) {
	s.activePos[id] = int32(len(s.active))
	s.active = append(s.active, id)
	s.remaining[id] = s.flows[id].Bytes
	s.dirty = true
	if s.starts != nil {
		s.starts[id] = now
	}
	if !s.opt.exactRecompute {
		if s.batching {
			s.queueMembership(id, true)
		} else {
			s.inc.join(s, id)
		}
	}
	if s.activeOnLink != nil {
		for _, l := range s.routes[id] {
			s.activeOnLink[l]++
		}
	}
}

// deactivate removes a flow from the active set with swap-remove.
func (s *sim) deactivate(id int32) {
	pos := s.activePos[id]
	last := int32(len(s.active) - 1)
	moved := s.active[last]
	s.active[pos] = moved
	s.activePos[moved] = pos
	s.active = s.active[:last]
	s.activePos[id] = -1
	if !s.opt.exactRecompute {
		if s.batching {
			s.queueMembership(id, false)
		} else {
			s.inc.leave(s, id)
		}
	}
	if s.activeOnLink != nil {
		for _, l := range s.routes[id] {
			s.activeOnLink[l]--
		}
	}
}

// fillFacts is what one rate recomputation reports to the run's
// observers (see observeEpoch).
type fillFacts struct {
	incremental bool    // a restricted fill of the dirty component
	dirtyLinks  int     // dirty seed links consumed
	affected    int     // flows re-waterfilled
	filled      int     // links re-waterfilled
	btlLink     int32   // tightest bottleneck frozen; -1 when none
	btlShare    float64 // its per-flow fair share
}

// waterfill assigns max-min fair rates to all active flows using
// progressive filling with a lazy min-heap of link fair shares.
func (s *sim) waterfill() fillFacts {
	s.epoch++
	s.touched = s.touched[:0]
	for _, f := range s.active {
		for _, l := range s.routes[f] {
			if s.stamp[l] != s.epoch {
				s.stamp[l] = s.epoch
				s.residual[l] = s.cap
				s.count[l] = 0
				s.linkFlows[l] = s.linkFlows[l][:0]
				s.touched = append(s.touched, l)
			}
			s.count[l]++
			s.linkFlows[l] = append(s.linkFlows[l], f)
		}
	}
	s.heap.reset()
	for _, l := range s.touched {
		s.heap.share = append(s.heap.share, s.residual[l]/float64(s.count[l]))
		s.heap.link = append(s.heap.link, l)
	}
	s.heap.init()

	frozen := 0
	target := len(s.active)
	facts := fillFacts{affected: target, filled: len(s.touched), btlLink: -1}
	for frozen < target && len(s.heap.link) > 0 {
		share, l := s.heap.pop()
		if s.count[l] == 0 {
			continue
		}
		cur := s.residual[l] / float64(s.count[l])
		if cur > share*(1+1e-12) {
			// Stale entry: the link gained headroom when other flows froze.
			s.heap.push(cur, l)
			continue
		}
		if facts.btlLink < 0 {
			// Progressive filling freezes bottlenecks in increasing share
			// order, so the first one is the tightest of this epoch.
			facts.btlLink, facts.btlShare = l, cur
		}
		// l is a bottleneck: freeze every unfrozen flow crossing it.
		for _, f := range s.linkFlows[l] {
			if s.frozenAt[f] == s.epoch {
				continue
			}
			s.frozenAt[f] = s.epoch
			s.rate[f] = cur
			frozen++
			for _, l2 := range s.routes[f] {
				s.residual[l2] -= cur
				if s.residual[l2] < 0 {
					s.residual[l2] = 0
				}
				s.count[l2]--
			}
		}
	}
	return facts
}

// observeEpoch is the one place per-epoch facts leave the engine: it
// feeds a rate recomputation to the engine counters (Options.Metrics)
// and to the flight recorder (Options.Tracer), from which WriteEpochCSV
// rebuilds the per-epoch series.
func (s *sim) observeEpoch(epoch int, now float64, wallStart time.Time, f fillFacts) {
	if st := s.stats; st != nil {
		st.epochs.Inc()
		if f.incremental {
			st.incFills.Inc()
		} else {
			st.fullFills.Inc()
		}
		st.dirtyLinks.Add(int64(f.dirtyLinks))
		st.affected.Add(int64(f.affected))
		st.filledLinks.Add(int64(f.filled))
	}
	if !s.tracing {
		return
	}
	tr := s.opt.Tracer
	tr.WallSpanSince(evWaterfill, "waterfill", wallStart, 0, map[string]any{"epoch": epoch})
	tr.SimCounter(evActive, now, map[string]float64{
		"flows": float64(len(s.active)),
	})
	tr.SimCounter(evWaterfill, now, map[string]float64{
		"affected_flows": float64(f.affected),
		"dirty_links":    float64(f.dirtyLinks),
		"filled_links":   float64(f.filled),
	})
	tr.SimInstant(evBottleneck, "epoch", now, map[string]any{
		"epoch": epoch,
		"link":  f.btlLink,
		"share": f.btlShare,
	})
}

// release decrements the dependency count of id's children, activating the
// ones that become ready. Zero-byte flows complete immediately and cascade.
func (s *sim) release(id int32, now float64) {
	for i := s.childStart[id]; i < s.childStart[id+1]; i++ {
		c := s.childList[i]
		s.indeg[c]--
		if s.indeg[c] == 0 {
			s.inject(c, now)
		}
	}
}

// chooseRoute materialises the least-loaded candidate route for a flow in
// adaptive mode. It is a no-op when the route is already set.
func (s *sim) chooseRoute(id int32) {
	if s.mrouter == nil || s.routes[id] != nil {
		return
	}
	fl := &s.flows[id]
	if fl.Src == fl.Dst && s.opt.DisablePorts {
		s.routes[id] = []int32{}
		return
	}
	bestScore := int32(1<<31 - 1)
	var best []int32
	for c := 0; c < s.numChoices; c++ {
		s.routeScratch = s.mrouter.RouteChoiceAppend(s.routeScratch[:0], int(fl.Src), int(fl.Dst), c)
		score := int32(0)
		for _, l := range s.routeScratch {
			if s.activeOnLink[l] > score {
				score = s.activeOnLink[l]
			}
		}
		if score < bestScore {
			bestScore = score
			best = append(best[:0], s.routeScratch...)
		}
	}
	if s.latency != nil {
		s.latency[id] = s.opt.LatencyBase + s.opt.LatencyPerHop*float64(len(best))
	}
	extra := 0
	if !s.opt.DisablePorts {
		extra = 2
	}
	r := make([]int32, 0, len(best)+extra)
	if !s.opt.DisablePorts {
		r = append(r, s.injectionLink(fl.Src))
	}
	r = append(r, best...)
	if !s.opt.DisablePorts {
		r = append(r, s.ejectionLink(fl.Dst))
	}
	s.routes[id] = r
}

func (s *sim) inject(id int32, now float64) {
	s.indeg[id] = -1 // guard against double injection via release cascades
	if s.lost != nil && s.lost[id] {
		// Disconnected at prepare time: the data never arrives, but the
		// dependents are released so the rest of the workload completes.
		s.loseFlow(id, now, s.flows[id].Bytes, false)
		return
	}
	if s.ft != nil && s.mrouter != nil && !s.ft.Connected(int(s.flows[id].Src), int(s.flows[id].Dst)) {
		// Adaptive mode defers routing to injection; the disconnection
		// check has to happen here too.
		s.loseFlow(id, now, s.flows[id].Bytes, false)
		return
	}
	s.chooseRoute(id)
	if s.deadCount > 0 && s.routeCrossesDead(id) {
		// A fault event killed part of this flow's route before it was
		// injected; detour or declare it lost.
		if !s.rerouteFlow(id) {
			s.loseFlow(id, now, s.flows[id].Bytes, false)
			return
		}
	}
	// Dependencies are satisfied, but the flow may still be gated by its
	// release time; it holds in the pending heap until then.
	rel := now
	if fl := &s.flows[id]; fl.Start > now {
		rel = fl.Start
	}
	if s.flows[id].Bytes <= 0 || len(s.routes[id]) == 0 {
		// Nothing to transmit, or a self-flow with ports disabled: the
		// transfer never occupies a shared resource and completes the
		// instant it is released.
		if rel > now {
			s.pending.push(pendEntry{at: rel, id: id})
			return
		}
		s.ends[id] = now
		s.done++
		if s.starts != nil {
			s.starts[id] = now
		}
		s.trace(id, now)
		s.release(id, now)
		return
	}
	at := rel
	if s.latency != nil {
		at += s.latency[id]
	}
	if at > now {
		s.pending.push(pendEntry{at: at, id: id})
		return
	}
	s.activate(id, now)
}

// trace writes one completion record when tracing is enabled. The first
// write failure is remembered (and stops further writes); run surfaces it
// so a full disk cannot masquerade as a successful, complete trace.
func (s *sim) trace(id int32, end float64) {
	if s.opt.Trace == nil || s.traceErr != nil {
		return
	}
	start := end
	if s.starts != nil {
		start = s.starts[id]
	}
	fl := &s.flows[id]
	if _, err := fmt.Fprintf(s.opt.Trace, "%d,%d,%d,%g,%.9g,%.9g\n", id, fl.Src, fl.Dst, fl.Bytes, start, end); err != nil {
		s.traceErr = err
	}
}

// activateDue moves every pending flow whose latency has elapsed by `now`
// into the active set. Flows whose route died while they waited out
// their latency are detoured (or lost) first.
func (s *sim) activateDue(now float64) {
	for len(s.pending) > 0 && s.pending[0].at <= now*(1+1e-15) {
		e := s.pending.pop()
		if s.flows[e.id].Bytes <= 0 || len(s.routes[e.id]) == 0 {
			// A release-gated degenerate flow: it occupies no link, so it
			// completes the moment its start time arrives. Its release may
			// cascade into fresh injections (and pending-heap pushes),
			// which this loop then drains in the same pass.
			s.ends[e.id] = now
			s.done++
			if s.starts != nil {
				s.starts[e.id] = now
			}
			s.trace(e.id, now)
			s.release(e.id, now)
			continue
		}
		if s.deadCount > 0 && s.routeCrossesDead(e.id) {
			if !s.rerouteFlow(e.id) {
				s.loseFlow(e.id, now, s.flows[e.id].Bytes, false)
				continue
			}
		}
		s.activate(e.id, now)
	}
}

func (s *sim) run() (*Result, error) {
	f := len(s.flows)
	now := 0.0
	// Fault events scheduled at t=0 strike before the first injection, so
	// the initial wave already routes around the dead links.
	s.applyDueFaults(now)
	for i := 0; i < f; i++ {
		if s.indeg[i] == 0 {
			s.inject(int32(i), now)
		}
	}

	res := &Result{}
	var completed []int32
	needRefresh := true
	completedSince := 0
	for len(s.active) > 0 || len(s.pending) > 0 {
		if s.canceled() {
			return nil, fmt.Errorf("flow: canceled at t=%g after %d epochs: %w", now, res.Epochs, s.ctx.Err())
		}
		if len(s.active) == 0 {
			// Nothing transmitting: jump to the next latency expiry (or
			// the next fault event, whichever strikes first — a pending
			// flow's route may need rerouting before it activates).
			at := s.pending[0].at
			if ft := s.nextFaultTime(); ft < at {
				at = ft
			}
			if at > now {
				now = at
			}
			s.applyDueFaults(now)
			s.activateDue(now)
			needRefresh = true
			continue
		}
		if needRefresh || float64(completedSince) >= s.opt.RefreshFraction*float64(len(s.active)) {
			var wallStart time.Time
			if s.tracing {
				wallStart = time.Now()
			}
			var facts fillFacts
			if s.opt.exactRecompute {
				facts = s.waterfill()
			} else {
				facts = s.waterfillIncremental()
			}
			res.Epochs++
			needRefresh = false
			completedSince = 0
			s.observeEpoch(res.Epochs, now, wallStart, facts)
		}

		// Earliest completion among active flows.
		var tmin float64
		if s.pool != nil && len(s.active) >= parScanMin {
			tmin = s.minFinishParallel()
		} else {
			tmin = math.Inf(1)
			for _, id := range s.active {
				if fin := s.remaining[id] / s.rate[id]; fin < tmin {
					tmin = fin
				}
			}
		}
		if math.IsInf(tmin, 1) || tmin < 0 {
			return nil, fmt.Errorf("flow: stalled simulation (no progress at t=%g with %d active flows)", now, len(s.active))
		}
		dt := tmin * (1 + s.opt.RelEpsilon)
		// Guard against dt == 0 underflow on zero-remaining corner cases.
		if dt <= 0 {
			dt = tmin
		}
		// Never advance past the next latency expiry: a newly active flow
		// changes the fair shares.
		if len(s.pending) > 0 {
			if gap := s.pending[0].at - now; gap < dt {
				dt = gap
				if dt < 0 {
					dt = 0
				}
			}
		}
		// Nor past the next fault event: rates change when links die.
		if ft := s.nextFaultTime(); !math.IsInf(ft, 1) {
			if gap := ft - now; gap < dt {
				dt = gap
				if dt < 0 {
					dt = 0
				}
			}
		}
		now += dt
		completed = completed[:0]
		if dt > 0 {
			if s.pool != nil && len(s.active) >= parScanMin {
				completed = s.advanceParallel(dt, completed)
			} else {
				for _, id := range s.active {
					adv := s.rate[id] * dt
					if s.remaining[id] <= adv*(1+1e-12) {
						completed = append(completed, id)
					} else {
						s.remaining[id] -= adv
					}
				}
			}
		}
		for _, id := range completed {
			s.deactivate(id)
			s.ends[id] = now
			s.done++
			hops := len(s.routes[id])
			if !s.opt.DisablePorts {
				hops -= 2
			}
			res.HopBytes += float64(hops) * s.flows[id].Bytes
			for _, l := range s.routes[id] {
				s.linkBytes[l] += s.flows[id].Bytes
			}
			s.trace(id, now)
			s.release(id, now)
		}
		completedSince += len(completed)
		s.applyDueFaults(now)
		s.activateDue(now)
		if s.dirty {
			needRefresh = true // newly activated flows have no rate yet
			s.dirty = false
		}
	}
	if s.done != f {
		return nil, fmt.Errorf("flow: %d of %d flows never ran — dependency cycle in workload", f-s.done, f)
	}
	if s.traceErr != nil {
		return nil, fmt.Errorf("flow: writing trace: %w", s.traceErr)
	}

	res.Makespan = now
	res.BytesDelivered = 0
	for i := range s.flows {
		res.BytesDelivered += s.flows[i].Bytes
	}
	if s.lostFlows > 0 {
		// Guarded so pristine runs keep bit-identical arithmetic.
		res.BytesDelivered -= s.lostBytes
		res.DisconnectedFlows = s.lostFlows
		res.LostBytes = s.lostBytes
	}
	res.ReroutedFlows = s.rerouted
	if s.opt.RecordFlowEnds {
		res.FlowEnds = s.ends
	}
	if now > 0 {
		denom := s.cap * now
		sum, nonzero := 0.0, 0
		for l := 0; l < s.numTopoLinks; l++ {
			u := s.linkBytes[l] / denom
			if u > res.MaxLinkUtilization {
				res.MaxLinkUtilization = u
			}
			if s.linkBytes[l] > 0 {
				sum += u
				nonzero++
			}
		}
		if nonzero > 0 {
			res.MeanLinkUtilization = sum / float64(nonzero)
		}
		for l := s.numTopoLinks; l < s.numLinks; l++ {
			if u := s.linkBytes[l] / denom; u > res.MaxPortUtilization {
				res.MaxPortUtilization = u
			}
		}
	}
	if s.opt.HotspotK > 0 {
		res.Hotspots = s.computeHotspots(res.Makespan)
	}
	return res, nil
}
