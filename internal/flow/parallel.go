// Deterministic intra-run parallelism (Options.Workers).
//
// One simulation can shard its hot paths over a par.Pool while staying
// bit-identical to the serial engine — the differential tests in
// parallel_test.go enforce identity against both the serial incremental
// engine and the exact-recompute oracle. Every parallel stage below is a
// fork-join barrier inside the otherwise serial event loop, built so
// that its writes are partitioned deterministically and its merges are
// performed in shard order:
//
//   - Route construction (prepareRoutesParallel): the flow list is cut
//     into contiguous shards, each worker routing its shard into a
//     private path arena. routes[i] is an indexed write, so the DAG is
//     assembled in flow-id order no matter which worker finishes first.
//   - Waterfill fill setup (fillSetupParallel): the fill's id-ascending
//     link list is cut into contiguous shards; workers compute per-shard
//     residuals, counts and share histograms, and a serial merge
//     derives per-(shard, count) scatter cursors that reproduce the
//     serial counting sort's array byte for byte. The progressive
//     filling pop loop then consumes an identical array, so the
//     selected bottleneck sequence — and every rate — matches the
//     serial result exactly.
//   - Restricted-fill region sorts (sortIDs): per-shard sorts merged
//     pairwise; sorting is canonical, so the result equals slices.Sort.
//   - Active-set scans (minFinishParallel, advanceParallel): per-shard
//     minima and completion buffers merged in shard order, equal to the
//     serial scan's value and completion order.
//   - Membership maintenance (flushMembership): joins and leaves are
//     queued as an op log and replayed in batch, each worker applying,
//     in log order, exactly the links it owns (link id mod pool size).
//     Per-link state therefore evolves in the serial engine's order —
//     the packed member records and the slots end up byte-identical —
//     and the dirty marks, a flag-guarded set, merge in worker order
//     without affecting any downstream arithmetic (the closure outcome
//     depends only on the set, and every fill input is sorted).
//
// The float-level determinism argument for the fill phase is in
// incremental.go (properties 1-4); DESIGN.md §12 walks through the
// sharded variants.
package flow

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"mtier/internal/par"
)

// Size gates for the parallel stages: below these the fork-join
// overhead outweighs the shard work, and the serial code runs instead.
// Variables so the differential tests can force every parallel stage on
// at test-sized inputs (see export_test.go).
var (
	parRouteMin = 2048 // flows before route construction shards
	parFillMin  = 4096 // links before a fill's setup shards
	parScanMin  = 4096 // active flows before the epoch scans shard
	parSortMin  = 4096 // elements before sortIDs shards
	parBatchMin = 512  // queued membership ops before a batch replay shards
)

// memOp is one queued membership change: a flow joining (activation) or
// leaving (completion) the links of its route.
type memOp struct {
	id   int32
	join bool
}

// prepareRoutesParallel is the sharded counterpart of prepare's route
// loop. Not used in adaptive mode (routes are chosen at injection time,
// load-dependent and inherently serial). Topologies are documented safe
// for concurrent routing, and fault.Degraded's detour cache is
// mutex-guarded with order-independent results, so shards may route
// concurrently; all outputs (routes[i], latency[i], lost[i]) are
// per-flow indexed writes.
func (s *sim) prepareRoutesParallel(spec *Spec, withLatency bool) error {
	f := len(spec.Flows)
	if s.ft != nil && s.lost == nil {
		// markLost's lazy allocation is not shard-safe; pre-allocate.
		s.lost = make([]bool, f)
	}
	var stop atomic.Bool
	s.pool.ForShards(f, func(shard, lo, hi int) {
		// One wall-clock trace lane per shard, so the flight recorder
		// shows route construction stacking across the pool.
		sp := s.opt.Tracer.BeginTID("flow.routes.shard", "shard", shard+1)
		defer sp.EndArgs(map[string]any{"shard": shard, "flows": hi - lo})
		var local arena
		scratch := make([]int32, 0, 256)
		for i := lo; i < hi; i++ {
			// The serial loop honours cancellation every 4096 flows; each
			// shard keeps the same cadence.
			if i&0xfff == 0 && (stop.Load() || s.canceled()) {
				stop.Store(true)
				return
			}
			fl := &spec.Flows[i]
			if s.ft != nil {
				var ok bool
				scratch, ok = s.ft.RouteAppendOK(scratch[:0], int(fl.Src), int(fl.Dst))
				if !ok {
					s.lost[i] = true
					continue
				}
			} else {
				scratch = s.t.RouteAppend(scratch[:0], int(fl.Src), int(fl.Dst))
			}
			if withLatency {
				s.latency[i] = s.opt.LatencyBase + s.opt.LatencyPerHop*float64(len(scratch))
			}
			s.routes[i] = s.materialiseRouteIn(&local, fl, scratch)
		}
	})
	if stop.Load() || s.canceled() {
		return fmt.Errorf("flow: canceled while preparing routes (%d flows): %w", f, s.ctx.Err())
	}
	if s.stats != nil {
		s.stats.parRoutes.Inc()
	}
	return nil
}

// queueMembership records an activation/completion for the next batch
// replay instead of applying it immediately.
func (s *sim) queueMembership(id int32, join bool) {
	s.memOps = append(s.memOps, memOp{id: id, join: join})
}

// flushMembership applies every queued join/leave to the incremental
// engine's link state. Small batches replay serially (identical to the
// unbatched engine by construction); large ones shard by link
// ownership: worker w applies, in log order, the ops' route links with
// id ≡ w (mod workers). Each link's membership therefore receives the
// same sequence of appends and swap-removes as in the serial engine,
// and every slots[f][i] cell is owned by the worker owning route_f[i],
// so the replay is race-free and byte-identical.
func (s *sim) flushMembership() {
	ops := s.memOps
	if len(ops) == 0 {
		return
	}
	st := &s.inc
	w := s.pool.Workers()
	if len(ops) < parBatchMin || w == 1 {
		for _, op := range ops {
			if op.join {
				st.join(s, op.id)
			} else {
				st.leave(s, op.id)
			}
		}
		s.memOps = ops[:0]
		return
	}
	// Slot arrays are handed out by a shared arena: allocate serially, in
	// log order (flows activate at most once between fault flushes, so a
	// batch holds at most one join per flow).
	for _, op := range ops {
		if op.join {
			st.slots[op.id] = st.slotArena.alloc(len(s.routes[op.id]))
		}
	}
	if len(st.pdirty) < w {
		st.pdirty = append(st.pdirty, make([][]int32, w-len(st.pdirty))...)
	}
	s.pool.Run(func(wk int) {
		dirtyBuf := st.pdirty[wk][:0]
		uw := uint32(w)
		for _, op := range ops {
			id := op.id
			route := s.routes[id]
			slots := st.slots[id]
			if op.join {
				for i, l := range route {
					if uint32(l)%uw != uint32(wk) {
						continue
					}
					slots[i] = int32(len(st.members[l]))
					st.members[l] = append(st.members[l], member{id, int32(i)})
					st.nActive[l]++
					if !st.dirtyOn[l] {
						st.dirtyOn[l] = true
						dirtyBuf = append(dirtyBuf, l)
					}
				}
			} else {
				for i, l := range route {
					if uint32(l)%uw != uint32(wk) {
						continue
					}
					k := slots[i]
					mem := st.members[l]
					last := int32(len(mem) - 1)
					if k != last {
						m := mem[last]
						mem[k] = m
						st.slots[m.f][m.i] = k
					}
					st.members[l] = mem[:last]
					st.nActive[l]--
					if !st.dirtyOn[l] {
						st.dirtyOn[l] = true
						dirtyBuf = append(dirtyBuf, l)
					}
				}
			}
		}
		st.pdirty[wk] = dirtyBuf
	})
	// Merge the flag-guarded mark set in worker order (each link appears
	// in exactly one worker's buffer), and clear the left flows' slots.
	for wk := 0; wk < w; wk++ {
		st.dirty = append(st.dirty, st.pdirty[wk]...)
	}
	for _, op := range ops {
		if !op.join {
			st.slots[op.id] = nil
		}
	}
	s.memOps = ops[:0]
	if s.stats != nil {
		s.stats.parBatches.Inc()
	}
}

// fillSetupParallel builds the counting-sorted (share, link) array for
// fillSorted over contiguous link shards: parallel residual/count
// reset with per-shard occupancy histograms, a serial merge that
// assigns each (shard, count) pair its scatter cursor — shard order
// inside a count bucket is id order, because the shards are contiguous
// slices of an id-ascending list — and a parallel stable scatter. The
// resulting array is byte-identical to fillSetupSerial's.
func (s *sim) fillSetupParallel(links []int32) {
	st := &s.inc
	w := s.pool.Workers()
	if len(st.pmax) < w {
		st.pmax = append(st.pmax, make([]int32, w-len(st.pmax))...)
		st.pcnt = append(st.pcnt, make([][]int32, w-len(st.pcnt))...)
		st.pcur = append(st.pcur, make([][]int32, w-len(st.pcur))...)
	}
	// ForShards skips empty shards, which would leave their pmax entries
	// stale from an earlier, larger fill.
	for i := range st.pmax[:w] {
		st.pmax[i] = 0
	}
	s.pool.ForShards(len(links), func(shard, lo, hi int) {
		maxC := int32(0)
		for _, l := range links[lo:hi] {
			c := st.nActive[l]
			s.residual[l] = s.cap
			s.count[l] = c
			if c > maxC {
				maxC = c
			}
		}
		st.pmax[shard] = maxC
	})
	maxC := int32(0)
	for _, m := range st.pmax[:w] {
		if m > maxC {
			maxC = m
		}
	}
	if int(maxC) >= len(st.shr) {
		st.shr = append(st.shr, make([]float64, int(maxC)+1-len(st.shr))...)
	}
	for wk := 0; wk < w; wk++ {
		if int(maxC) >= len(st.pcnt[wk]) {
			st.pcnt[wk] = append(st.pcnt[wk], make([]int32, int(maxC)+1-len(st.pcnt[wk]))...)
			st.pcur[wk] = append(st.pcur[wk], make([]int32, int(maxC)+1-len(st.pcur[wk]))...)
		}
	}
	s.pool.ForShards(len(links), func(shard, lo, hi int) {
		cnt := st.pcnt[shard]
		for _, l := range links[lo:hi] {
			cnt[s.count[l]]++
		}
	})
	// Bucket offsets in (count descending, id ascending) order, exactly
	// as the serial counting sort lays them out; one division per
	// distinct count.
	off := int32(0)
	for c := maxC; c >= 1; c-- {
		total := int32(0)
		for wk := 0; wk < w; wk++ {
			total += st.pcnt[wk][c]
		}
		if total == 0 {
			continue
		}
		st.shr[c] = s.cap / float64(c)
		cur := off
		for wk := 0; wk < w; wk++ {
			st.pcur[wk][c] = cur
			cur += st.pcnt[wk][c]
		}
		off += total
	}
	if cap(st.arr) < len(links) {
		st.arr = make([]heapEntry, len(links))
	}
	arr := st.arr[:len(links)]
	s.pool.ForShards(len(links), func(shard, lo, hi int) {
		cur := st.pcur[shard]
		for _, l := range links[lo:hi] {
			c := s.count[l]
			arr[cur[c]] = heapEntry{st.shr[c], l}
			cur[c]++
		}
	})
	// Histograms must read all-zero at the next fill.
	for wk := 0; wk < w; wk++ {
		cnt := st.pcnt[wk]
		for c := maxC; c >= 1; c-- {
			cnt[c] = 0
		}
	}
	if s.stats != nil {
		s.stats.parFills.Inc()
	}
}

// sortIDs sorts a slice of link ids ascending, equal to slices.Sort but
// sharded for large inputs: parallel shard sorts followed by pairwise
// run merges (parallel across pairs, log₂(workers) passes). Sorting is
// canonical, so the result is identical no matter the partitioning.
func (s *sim) sortIDs(a []int32) {
	if s.pool == nil || len(a) < parSortMin {
		slices.Sort(a)
		return
	}
	st := &s.inc
	w := s.pool.Workers()
	s.pool.ForShards(len(a), func(shard, lo, hi int) {
		slices.Sort(a[lo:hi])
	})
	if cap(st.sortBuf) < len(a) {
		st.sortBuf = make([]int32, len(a))
	}
	bounds := st.sortBounds[:0]
	for shard := 0; shard < w; shard++ {
		lo, hi := par.Shard(len(a), shard, w)
		if lo < hi {
			bounds = append(bounds, int32(lo))
		}
	}
	bounds = append(bounds, int32(len(a)))
	src, dst := a, st.sortBuf[:len(a)]
	for len(bounds) > 2 {
		pairs := (len(bounds) - 1) / 2
		s.pool.Run(func(wk int) {
			for pi := wk; pi < pairs; pi += w {
				lo, mid, hi := int(bounds[2*pi]), int(bounds[2*pi+1]), int(bounds[2*pi+2])
				mergeInt32(dst[lo:hi], src[lo:mid], src[mid:hi])
			}
		})
		if (len(bounds)-1)%2 == 1 {
			lo, hi := int(bounds[len(bounds)-2]), int(bounds[len(bounds)-1])
			copy(dst[lo:hi], src[lo:hi])
		}
		// Collapse pair boundaries in place: position k reads index 2k,
		// so writes never overtake reads.
		out := bounds[:0]
		for i := 0; i < len(bounds); i += 2 {
			out = append(out, bounds[i])
		}
		if (len(bounds)-1)%2 == 1 {
			out = append(out, bounds[len(bounds)-1])
		}
		bounds = out
		src, dst = dst, src
	}
	st.sortBounds = bounds[:0]
	if &src[0] != &a[0] {
		copy(a, src)
	}
	if s.stats != nil {
		s.stats.parSorts.Inc()
	}
}

// mergeInt32 merges two sorted runs into dst (len(dst) = len(a)+len(b)).
func mergeInt32(dst, a, b []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// minFinishParallel is the sharded earliest-completion scan: per-shard
// minima merged in shard order. Minimum over non-NaN float64s is
// order-independent, so the value equals the serial scan's bit for bit.
func (s *sim) minFinishParallel() float64 {
	w := s.pool.Workers()
	if cap(s.parTmin) < w {
		s.parTmin = make([]float64, w)
	}
	pt := s.parTmin[:w]
	for i := range pt {
		pt[i] = math.Inf(1)
	}
	s.pool.ForShards(len(s.active), func(shard, lo, hi int) {
		tm := math.Inf(1)
		for _, id := range s.active[lo:hi] {
			if fin := s.remaining[id] / s.rate[id]; fin < tm {
				tm = fin
			}
		}
		pt[shard] = tm
	})
	tmin := math.Inf(1)
	for _, tm := range pt {
		if tm < tmin {
			tmin = tm
		}
	}
	if s.stats != nil {
		s.stats.parScans.Inc()
	}
	return tmin
}

// advanceParallel is the sharded progress scan: remaining[id] updates
// are per-flow indexed writes, and per-shard completion buffers are
// concatenated in shard order — the active-list order the serial scan
// produces.
func (s *sim) advanceParallel(dt float64, completed []int32) []int32 {
	w := s.pool.Workers()
	if len(s.parDone) < w {
		s.parDone = append(s.parDone, make([][]int32, w-len(s.parDone))...)
	}
	// ForShards skips empty shards; truncate every buffer up front so a
	// shrunken active set cannot leak a previous scan's completions.
	for i := range s.parDone[:w] {
		s.parDone[i] = s.parDone[i][:0]
	}
	s.pool.ForShards(len(s.active), func(shard, lo, hi int) {
		buf := s.parDone[shard][:0]
		for _, id := range s.active[lo:hi] {
			adv := s.rate[id] * dt
			if s.remaining[id] <= adv*(1+1e-12) {
				buf = append(buf, id)
			} else {
				s.remaining[id] -= adv
			}
		}
		s.parDone[shard] = buf
	})
	for shard := 0; shard < w; shard++ {
		completed = append(completed, s.parDone[shard]...)
	}
	return completed
}
