// The incremental rate-recomputation engine, the default.
//
// The reference waterfill (flow.go) rebuilds every touched link's
// residual capacity, flow count and member list from scratch at each
// completion epoch, so its cost scales with (active flows × route
// length) even when one small flow finishes — and then pays a further
// O(L log L) in heap traffic to pop the links in share order. This file
// replaces both costs with persistent per-link state maintained in
// activate and deactivate, plus two complementary fill strategies:
//
//   - A restricted fill over the dirty connected component: the links
//     on completed/injected flows' routes plus everything reachable
//     through shared links. Flows outside the component keep their
//     frozen rates.
//   - A full fill over every occupied link, listed in id order by one
//     ascending scan of the per-link occupancy counts. Used when the
//     dirty component engulfs most of the active set (dense workloads
//     mid-drain form one giant sharing component).
//
// Both strategies feed fillSorted, which exploits that every link's
// initial fair share is cap/nActive with a small integer count: the
// links can be ordered by (count descending, id ascending) with a
// counting sort — no float comparisons, one division per distinct
// count — and the progressive filling then consumes that sorted array
// directly. Only stale re-pushes (links whose share grew while they
// waited) need a real priority queue, and those are few, so the
// reference's per-pop O(log L) sift over all occupied links shrinks to
// a single head-to-head comparison for most pops.
//
// Bitwise identity with the reference engine is a hard requirement
// (guarded by the differential tests in differential_test.go). It
// follows from four properties:
//
//  1. The reference heap orders entries by (share, link id) — a strict
//     total order — so its pop sequence is a pure function of the entry
//     multiset: always the minimum remaining entry, independent of
//     insertion order and internal heap layout. Re-pushed stale entries
//     always exceed the value just popped, so pops stay sorted even as
//     entries are added mid-fill.
//  2. fillSorted pops the same sequence: each step takes the smaller,
//     under the same total order, of the sorted array's head and the
//     overflow heap's top — the minimum remaining entry. The counting
//     sort produces exactly the total order because shares are
//     cap/count with cap > 0: share strictly decreases in count (counts
//     are far too small for two distinct counts to divide to the same
//     float64), and the stable pass keeps ids ascending within a count.
//  3. Connected components of the flow↔link sharing graph are
//     arithmetically disjoint: a pop from one component never touches
//     another's residuals or counts, so the merged fill computes each
//     component exactly as a component-only fill would. Restricting the
//     fill to the dirty closure therefore reproduces the reference's
//     rates for the recomputed flows bit for bit, and components whose
//     structure is unchanged would recompute to their current rates
//     (the fill is a pure function of membership), so keeping them
//     frozen is exact.
//  4. Within one bottleneck freeze every flow subtracts the same share,
//     and x -> max(0, x-c) applications of a single c commute, so the
//     order in which a link's members are frozen cannot change any
//     residual's bits.
package flow

import (
	"mtier/internal/obs"
)

// BFS overflow hysteresis: when the dirty closure exceeds half the
// active set, the restricted fill cannot beat the full fill and the
// closure walk itself is wasted work. After an overflow the walk is
// suppressed for a doubling number of epochs, and re-tried early once
// the active set has drained well below its size at the overflow —
// that is when giant components fragment and restricted fills start
// paying again.
const (
	initialBFSPenalty = 4
	maxBFSPenalty     = 1024
)

// member is one active flow on a link: the flow id and the position of
// the link in that flow's route, which locates the flow's slot entry.
// Packing both into one record lets a join, leave or batch replay load
// a single slice per (flow, link).
type member struct {
	f, i int32
}

// incState is the persistent link state of the incremental engine,
// updated on every activate/deactivate instead of rebuilt per epoch.
type incState struct {
	nActive   []int32    // active flows per link
	members   [][]member // active flows per link
	slots     [][]int32  // per flow: its index in members[l] for each route link l
	slotArena arena

	occ []int32 // scratch: the occupied links (nActive > 0) of a full fill

	dirty   []int32 // links whose membership changed since the last fill
	dirtyOn []bool

	cnt  []int32   // counting-sort scratch: histogram per occupancy count
	cpos []int32   // counting-sort scratch: write cursor per count
	shr  []float64 // counting-sort scratch: cap/count per distinct count
	arr  []heapEntry

	// Per-worker scratch of the parallel stages (parallel.go); empty
	// unless the run has a pool.
	pmax       []int32   // fill setup: per-shard max occupancy count
	pcnt       [][]int32 // fill setup: per-shard count histograms
	pcur       [][]int32 // fill setup: per-(shard, count) scatter cursors
	pdirty     [][]int32 // batch replay: per-worker dirty marks
	sortBuf    []int32   // sortIDs: merge double-buffer
	sortBounds []int32   // sortIDs: run boundaries

	flowSeen []int64 // closure visit stamps, per flow
	affected []int32 // scratch: flows of the dirty closure
	region   []int32 // scratch: links of the dirty closure
	queue    []int32 // scratch: closure frontier

	penalty    int64 // epochs to suppress the closure walk after an overflow
	skipUntil  int64 // epoch until which the walk is suppressed
	retryBelow int   // re-try the walk early once len(active) drops below this
}

func (st *incState) init(numLinks, numFlows int) {
	st.nActive = make([]int32, numLinks)
	st.members = make([][]member, numLinks)
	st.slots = make([][]int32, numFlows)
	st.dirtyOn = make([]bool, numLinks)
	st.flowSeen = make([]int64, numFlows)
	for i := range st.flowSeen {
		st.flowSeen[i] = -1
	}
	st.penalty = initialBFSPenalty
}

// join adds an activating flow to the membership of every link on its
// route. Flows activate at most once, so the slot table is arena-backed.
// Membership changes are O(1) per link.
func (st *incState) join(s *sim, id int32) {
	route := s.routes[id]
	slots := st.slotArena.alloc(len(route))
	st.slots[id] = slots
	for i, l := range route {
		slots[i] = int32(len(st.members[l]))
		st.members[l] = append(st.members[l], member{id, int32(i)})
		st.nActive[l]++
		st.mark(l)
	}
}

// mark flags a link as dirty (closure seed).
func (st *incState) mark(l int32) {
	if !st.dirtyOn[l] {
		st.dirtyOn[l] = true
		st.dirty = append(st.dirty, l)
	}
}

// leave removes a completing flow from its links with swap-removes; the
// displaced member's slot entry is patched through its route position.
func (st *incState) leave(s *sim, id int32) {
	route := s.routes[id]
	slots := st.slots[id]
	for i, l := range route {
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
		st.mark(l)
	}
	st.slots[id] = nil
}

// closure grows the dirty connected component: every member flow of a
// dirty link, every link of such a flow, transitively. The walk aborts
// (returning false) once it has pulled in more than budget flows — past
// that point a full fill is cheaper than finishing the walk.
func (s *sim) closure(budget int) bool {
	st := &s.inc
	st.affected = st.affected[:0]
	st.region = st.region[:0]
	st.queue = st.queue[:0]
	for _, seed := range st.dirty {
		if st.nActive[seed] == 0 || s.stamp[seed] == s.epoch {
			continue
		}
		s.stamp[seed] = s.epoch
		st.queue = append(st.queue, seed)
		for len(st.queue) > 0 {
			l := st.queue[len(st.queue)-1]
			st.queue = st.queue[:len(st.queue)-1]
			st.region = append(st.region, l)
			for _, m := range st.members[l] {
				f := m.f
				if st.flowSeen[f] == s.epoch {
					continue
				}
				st.flowSeen[f] = s.epoch
				st.affected = append(st.affected, f)
				if len(st.affected) > budget {
					return false
				}
				for _, l2 := range s.routes[f] {
					if s.stamp[l2] == s.epoch {
						continue
					}
					s.stamp[l2] = s.epoch
					st.queue = append(st.queue, l2)
				}
			}
		}
	}
	return true
}

// waterfillIncremental is the incremental counterpart of waterfill: it
// re-waterfills the dirty connected component (or, when that component
// covers most of the active set, everything — but from persistent state
// rather than a rebuild), keeping frozen rates elsewhere.
func (s *sim) waterfillIncremental() fillFacts {
	// Queued joins/leaves (batching mode) must land before the closure
	// walk reads the membership.
	s.flushMembership()
	s.epoch++
	st := &s.inc
	target := len(s.active)
	nDirty := len(st.dirty)

	restricted := false
	if s.epoch >= st.skipUntil || target < st.retryBelow {
		restricted = s.closure(target / 2)
		if restricted {
			st.penalty = initialBFSPenalty
			st.skipUntil = 0
			st.retryBelow = 0
		} else {
			st.skipUntil = s.epoch + st.penalty
			if st.penalty < maxBFSPenalty {
				st.penalty <<= 1
			}
			st.retryBelow = target * 3 / 4
		}
	}
	// The dirt is consumed either way: a restricted fill recomputes its
	// closure, a full fill recomputes every active flow.
	for _, l := range st.dirty {
		st.dirtyOn[l] = false
	}
	st.dirty = st.dirty[:0]

	facts := fillFacts{incremental: restricted, dirtyLinks: nDirty}
	if restricted {
		facts.affected, facts.filled = len(st.affected), len(st.region)
		s.sortIDs(st.region)
		// The bottleneck is then the tightest of the recomputed region,
		// not necessarily of the whole network.
		facts.btlLink, facts.btlShare = s.fillSorted(st.region, facts.affected)
	} else {
		// Every occupied link, id-ascending: one scan of the counts costs
		// less than keeping a sorted list in step with the membership.
		occ := st.occ[:0]
		for l, c := range st.nActive {
			if c > 0 {
				occ = append(occ, int32(l))
			}
		}
		st.occ = occ
		facts.affected, facts.filled = target, len(occ)
		facts.btlLink, facts.btlShare = s.fillSorted(occ, target)
	}
	return facts
}

// fillSorted runs progressive filling over the given id-ascending links
// (all with nActive > 0), using the persistent membership lists in
// place of the reference engine's per-epoch linkFlows. The initial
// entries are counting-sorted into (share, id) order and consumed as a
// stream merged with the overflow heap of stale re-pushes; the popped
// sequence and all arithmetic mirror the reference's pop loop exactly
// (see the identity argument at the top of this file). It returns the
// first bottleneck frozen, the tightest of the fill, and its fair share
// (-1, 0 when nothing froze).
func (s *sim) fillSorted(links []int32, target int) (btlLink int32, btlShare float64) {
	st := &s.inc
	if s.pool != nil && len(links) >= parFillMin {
		s.fillSetupParallel(links)
	} else {
		s.fillSetupSerial(links)
	}
	arr := st.arr[:len(links)]

	ovf := &s.work
	ovf.e = ovf.e[:0]
	members := st.members
	frozen := 0
	ai := 0
	btlLink = -1
	for frozen < target {
		var share float64
		var l int32
		if ai < len(arr) {
			if len(ovf.e) > 0 && entryBefore(ovf.e[0], arr[ai]) {
				share, l = ovf.pop()
			} else {
				share, l = arr[ai].share, arr[ai].link
				ai++
			}
		} else if len(ovf.e) > 0 {
			share, l = ovf.pop()
		} else {
			break
		}
		if s.count[l] == 0 {
			continue
		}
		cur := s.residual[l] / float64(s.count[l])
		if cur > share*(1+1e-12) {
			ovf.push(cur, l)
			continue
		}
		if btlLink < 0 {
			btlLink, btlShare = l, cur
		}
		for _, m := range members[l] {
			f := m.f
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
	return btlLink, btlShare
}

// fillSetupSerial resets residuals and counts and counting-sorts the
// links into st.arr in (share, id) order — the serial reference for
// fillSetupParallel.
func (s *sim) fillSetupSerial(links []int32) {
	st := &s.inc
	// Pass 1: residuals, counts and the occupancy bound for the
	// counting sort.
	maxC := int32(0)
	for _, l := range links {
		c := st.nActive[l]
		s.residual[l] = s.cap
		s.count[l] = c
		if c > maxC {
			maxC = c
		}
	}
	// Grown independently: st.shr is shared with fillSetupParallel, which
	// may already have stretched it past the scratch the serial setup uses.
	if n := int(maxC) + 1; n > len(st.cnt) {
		st.cnt = append(st.cnt, make([]int32, n-len(st.cnt))...)
		st.cpos = append(st.cpos, make([]int32, n-len(st.cpos))...)
	}
	if n := int(maxC) + 1; n > len(st.shr) {
		st.shr = append(st.shr, make([]float64, n-len(st.shr))...)
	}
	for _, l := range links {
		st.cnt[s.count[l]]++
	}
	// Write cursors for descending count = ascending share, one division
	// per distinct count instead of one per link.
	off := int32(0)
	for c := maxC; c >= 1; c-- {
		if st.cnt[c] == 0 {
			continue
		}
		st.shr[c] = s.cap / float64(c)
		st.cpos[c] = off
		off += st.cnt[c]
	}
	if cap(st.arr) < len(links) {
		st.arr = make([]heapEntry, len(links))
	}
	arr := st.arr[:len(links)]
	// Pass 2 is stable, so links stay id-ascending within a count
	// bucket: exactly the (share, link) total order of the reference.
	for _, l := range links {
		c := s.count[l]
		arr[st.cpos[c]] = heapEntry{st.shr[c], l}
		st.cpos[c]++
	}
	for c := maxC; c >= 1; c-- {
		st.cnt[c] = 0
	}
}

// heapEntry is one (share, link) pair of the overflow heap, packed so a
// sift touches one cache line per node instead of two.
type heapEntry struct {
	share float64
	link  int32
}

// entryBefore is the same strict total order as shareHeap.before.
func entryBefore(a, b heapEntry) bool {
	return a.share < b.share || (a.share == b.share && a.link < b.link)
}

// workHeap holds the stale re-pushes of a fill: links whose fair share
// grew between their counting-sorted position and their pop. It stays
// small — most links pop fresh straight off the sorted array — so it is
// a plain 4-ary min-heap.
type workHeap struct {
	e []heapEntry
}

func (h *workHeap) push(share float64, link int32) {
	h.e = append(h.e, heapEntry{share, link})
	i := len(h.e) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryBefore(h.e[i], h.e[p]) {
			break
		}
		h.e[i], h.e[p] = h.e[p], h.e[i]
		i = p
	}
}

func (h *workHeap) pop() (float64, int32) {
	top := h.e[0]
	n := len(h.e) - 1
	h.e[0] = h.e[n]
	h.e = h.e[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top.share, top.link
}

func (h *workHeap) siftDown(i int) {
	n := len(h.e)
	for {
		c := 4*i + 1
		if c >= n {
			return
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryBefore(h.e[j], h.e[m]) {
				m = j
			}
		}
		if !entryBefore(h.e[m], h.e[i]) {
			return
		}
		h.e[i], h.e[m] = h.e[m], h.e[i]
		i = m
	}
}

// engineStats aggregates the engine's per-run counters into an
// obs.Registry: how many epochs ran, how they were recomputed, and how
// much of the network each recomputation touched.
type engineStats struct {
	epochs      *obs.Counter
	fullFills   *obs.Counter
	incFills    *obs.Counter
	dirtyLinks  *obs.Counter
	affected    *obs.Counter
	filledLinks *obs.Counter

	// Degraded-mode counters (see fault.go).
	killedLinks   *obs.Counter
	reroutedFlows *obs.Counter
	lostFlows     *obs.Counter

	// Intra-run parallelism (see parallel.go): the worker-pool size and
	// how many times each sharded stage actually ran.
	workers    *obs.Gauge
	parRoutes  *obs.Counter
	parFills   *obs.Counter
	parBatches *obs.Counter
	parScans   *obs.Counter
	parSorts   *obs.Counter
}

func newEngineStats(reg *obs.Registry) *engineStats {
	return &engineStats{
		epochs:      reg.Counter("flow.epochs"),
		fullFills:   reg.Counter("flow.waterfill.full"),
		incFills:    reg.Counter("flow.waterfill.incremental"),
		dirtyLinks:  reg.Counter("flow.waterfill.dirty_links"),
		affected:    reg.Counter("flow.waterfill.affected_flows"),
		filledLinks: reg.Counter("flow.waterfill.filled_links"),

		killedLinks:   reg.Counter("flow.fault.killed_links"),
		reroutedFlows: reg.Counter("flow.fault.rerouted_flows"),
		lostFlows:     reg.Counter("flow.fault.disconnected_flows"),

		workers:    reg.Gauge("flow.workers"),
		parRoutes:  reg.Counter("flow.shard.routes"),
		parFills:   reg.Counter("flow.shard.fills"),
		parBatches: reg.Counter("flow.shard.batches"),
		parScans:   reg.Counter("flow.shard.scans"),
		parSorts:   reg.Counter("flow.shard.sorts"),
	}
}
