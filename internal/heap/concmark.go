package heap

import (
	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/trace"
)

// The concurrent old-space marker (Config.ConcMark): FullCollect becomes
// a snapshot-at-the-beginning (SATB, Yuasa-style) marking cycle instead
// of the stop-the-world mark-compact in fullgc.go.
//
//   - Snapshot window (stop-the-world): one scavenge empties eden, then
//     the old-space referents of every root slot, every immortal, and
//     every object in the surviving new space are shaded grey. Young
//     space is never traced after this point, so the window is O(young
//     + roots), not O(old).
//   - Concurrent phase: grey old objects are blackened in bounded
//     slices. The initiating processor drains one slice per quantum,
//     yielding between slices so the other processors' quanta
//     interleave at safepoints.
//     A deletion barrier in the pointer-store funnels shades the old
//     referent a store is about to overwrite, which keeps every
//     snapshot-reachable object markable; objects allocated or tenured
//     into old space while marking is active are allocated black.
//   - Finalize window (stop-the-world): the residual grey stack is
//     drained (SATB guarantees it runs dry — no mutator runs to refill
//     it), and the entry table is pruned to marked objects.
//     O(residual + table), not O(old).
//   - Lazy sweep (outside the pauses): old space is walked once; live
//     objects have their mark bit cleared, dead runs are coalesced into
//     filler pseudo-objects and published as a free list that the
//     old-space allocators consult before bumping. Old space is never
//     compacted, so no pointer ever needs fixing up.
//
// The recorded full-GC pause under ConcMark is the longest single
// stop-the-world window, which stays bounded as old space grows; the
// serial collector's pause is O(live old data).
//
// The marker runs in the deterministic mode only (Config.Validate
// refuses it with Parallel): the windows are stopped by construction,
// and every mark, shade and sweep step is plain straight-line code.

// concMarkSliceObjects bounds one concurrent mark slice; at the default
// costs a slice is the same order as a scheduling quantum.
const concMarkSliceObjects = 64

// concMarkSweepBatch is how many old objects the lazy sweep walks
// between safepoints.
const concMarkSweepBatch = 256

// freeSpan is one sweep-reclaimed run of dead old-space words, capped
// by fillers (fillGap) so old space stays linearly walkable. The
// old-space allocators carve from spans first-fit before bumping.
type freeSpan struct {
	base  uint64
	words int
}

// concMark is the state of the concurrent marker. It exists for the
// heap's lifetime when Config.ConcMark is on (the store funnels check
// the pointer); a cycle is delimited by startConcMark/finishConcMark.
type concMark struct {
	h *Heap

	// cycle is true for the whole fullCollectConc span (marking and
	// sweep); another processor that asks for a full collection
	// between two of the cycle's slices skips its own.
	cycle bool
	// active is true between the snapshot and finalize windows; the
	// store funnels and the allocators read it.
	active bool
	// sweepPending is true from the finalize window until the lazy
	// sweep publishes its free list: old space then holds dead
	// objects awaiting reclamation, so free-list carving is disabled
	// and the write-barrier verifier skips unmarked objects.
	sweepPending bool

	grey   []object.OOP
	pushes uint64 // grey pushes this cycle; shadeRef bounds them
	marked uint64 // objects blackened this cycle
	shaded uint64 // deletion-barrier shades this cycle
	slices uint64 // bounded slices drained outside the windows

	work       firefly.Time // collector ticks charged this cycle
	sweepLimit uint64       // old.next at finalize: the sweep walks [old.base, sweepLimit)
}

// take removes up to budget grey objects (newest first, for locality
// with the slice that pushed them).
func (cm *concMark) take(budget int) []object.OOP {
	n := min(len(cm.grey), budget)
	batch := append([]object.OOP(nil), cm.grey[len(cm.grey)-n:]...)
	cm.grey = cm.grey[:len(cm.grey)-n]
	return batch
}

// shadeRef shades v grey if it is an unmarked old-space object. Values
// outside old space — SmallIntegers, immortals, young pointers — are
// ignored: young space is covered by the snapshot window and is never
// traced. Reports whether this call claimed the object.
func (cm *concMark) shadeRef(v object.OOP) bool {
	h := cm.h
	if !v.IsPtr() || v == object.Invalid {
		return false
	}
	a := v.Addr()
	if a < h.old.base || a >= h.newBase {
		return false
	}
	// White → grey: the mark bit records the push, so an object is
	// pushed (and later scanned) once, and a cycle pushes no more
	// objects than old space can hold.
	hd := h.Header(v)
	if hd.Marked() {
		return false
	}
	h.SetHeader(v, hd.SetMarked(true))
	if cm.pushes++; cm.pushes > (h.old.limit-h.old.base)/object.HeaderWords {
		panic("heap: grey-once invariant broken: the concurrent mark pushed more objects than old space can hold")
	}
	cm.grey = append(cm.grey, v)
	return true
}

// deletionBarrier is the SATB write barrier, called from the
// pointer-store funnels (Store, StoreNoCheck, SetClass) before the
// slot at idx is overwritten: the old-space object the slot currently
// references is shaded grey, so a reference that existed at the
// snapshot stays markable even if the mutator erases every copy of it.
// The shade itself is charged no virtual time — the cost lands when
// the slice scan blackens the object. It stays out of line: only a
// ConcMark heap calls it, and inlined it would grow every store funnel.
//
//msvet:atomic-excluded a ConcMark heap runs in the deterministic mode only (Config.Validate refuses Parallel), where every access to h.mem is plain
//go:noinline
func (h *Heap) deletionBarrier(idx uint64) {
	cm := h.cm
	if cm.active && cm.shadeRef(object.OOP(h.mem[idx])) {
		cm.shaded++
	}
}

// allocBlack reports whether a fresh old-space object at addr must be
// allocated with its mark bit set: while marking is active, a new
// object cannot be reached by the tracer (it was not in the snapshot),
// so it is born black to survive the sweep.
func (h *Heap) allocBlack(addr uint64) bool {
	return addr < h.newBase && h.cm != nil && h.cm.active
}

// carveOldFree carves total words from the sweep's free list,
// first-fit, leaving the remainder of the span as a fresh filler so
// old space stays walkable. The caller must serialize calls (the
// allocation lock in mutator paths; AllocateNoGC is deterministic-mode
// only). Carving is disabled while a sweep is rebuilding the list.
func (h *Heap) carveOldFree(total int) (uint64, bool) {
	cm := h.cm
	if cm == nil || cm.sweepPending {
		return 0, false
	}
	for i := range h.oldFree {
		s := &h.oldFree[i]
		if s.words < total {
			continue
		}
		base := s.base
		if rest := s.words - total; rest > 0 {
			// Re-cap the tail so the space stays linearly walkable.
			h.fillGap(base+uint64(total), base+uint64(s.words))
			s.base, s.words = base+uint64(total), rest
		} else {
			h.oldFree = append(h.oldFree[:i], h.oldFree[i+1:]...)
		}
		return base, true
	}
	return 0, false
}

// startConcMark opens a marking cycle in a stop-the-world window,
// entered as every collection enters one (the marker runs in the
// deterministic mode only, where entering charges nothing). One
// scavenge empties eden and the future survivor space, so the only young
// objects are a linear walk of the past survivor space; their
// old-space referents — and the roots' and the immortals' — are shaded
// grey. This conservative young shade closes the SATB hole where a
// young holder of the only young→old edge dies mid-mark: the edge was
// captured here. The remembered set is not a marking root.
func (h *Heap) startConcMark(p *firefly.Proc) {
	cm := h.cm
	if cm.active {
		panic("heap: concurrent mark cycle already active")
	}
	for !h.m.StopTheWorld(p) {
	}
	defer h.m.ResumeTheWorld(p)
	start := p.Now()
	h.rec.Emit(trace.KFullGCBegin, p.ID(), int64(start), 0, 0, "")
	h.scavenge(p)
	runHooks(h.preGC)

	cm.grey = cm.grey[:0]
	cm.pushes, cm.marked, cm.shaded, cm.slices, cm.work = 0, 0, 0, 0, 0

	shaded, words := 0, 0
	h.visitAllRoots(func(slot *object.OOP) {
		if cm.shadeRef(*slot) {
			shaded++
		}
	})
	shadeFrom := func(o object.OOP) {
		n, s := h.scanBlack(o)
		words, shaded = words+n, shaded+s
	}
	// The immortal objects never move and are never collected, but
	// their class words (and nil's fields) reference old space.
	for _, fixed := range []object.OOP{object.Nil, object.True, object.False} {
		shadeFrom(fixed)
	}
	past := &h.surv[h.past]
	for a := past.base; a < past.next; a += uint64(h.Header(object.FromAddr(a)).SizeWords()) {
		if !h.isFiller(a) {
			shadeFrom(object.FromAddr(a))
		}
	}

	c := h.m.Costs()
	pause := h.closeConcWindow(p, start, c.ConcMarkBegin+c.ConcMarkPerWord*firefly.Time(words))
	h.rec.Emit(trace.KConcMarkBegin, p.ID(), int64(p.Now()), int64(shaded), 0, "")
	h.rec.Emit(trace.KGCPause, p.ID(), int64(p.Now()), int64(pause), 1, "")

	cm.active = true
}

// scanBlack blackens one grey old object — or, in the snapshot window,
// walks an immortal or a past survivor: the old-space referents of its
// refWords are shaded. Returns the object's size in words, for cost
// accounting, and how many objects this call shaded.
func (h *Heap) scanBlack(o object.OOP) (words, shaded int) {
	for _, w := range h.refWords(o.Addr()) {
		if h.cm.shadeRef(object.OOP(w)) {
			shaded++
		}
	}
	return h.Header(o).SizeWords(), shaded
}

// concMarkSlice drains up to budget grey objects as one bounded slice,
// charging p for the scan. Returns the number of objects blackened
// (0 = the stack was empty).
func (h *Heap) concMarkSlice(p *firefly.Proc, budget int) int {
	cm := h.cm
	batch := cm.take(budget)
	if len(batch) == 0 {
		return 0
	}
	words := 0
	for _, o := range batch {
		n, _ := h.scanBlack(o)
		words += n
	}
	c := h.m.Costs()
	cost := c.ConcMarkPerObject*firefly.Time(len(batch)) +
		c.ConcMarkPerWord*firefly.Time(words)
	p.Advance(cost)
	cm.marked += uint64(len(batch))
	cm.slices++
	cm.work += cost
	h.lat.Record(trace.ConcMarkSlice, int64(cost))
	h.rec.Emit(trace.KConcMarkSlice, p.ID(), int64(p.Now()), int64(len(batch)), int64(cost), "")
	return len(batch)
}

// finishConcMark closes the cycle in a second stop-the-world window,
// entered like the first: the residual grey stack is drained (no
// mutator runs, so SATB guarantees it empties), the entry table is
// pruned to marked objects, and the sweep bounds are captured. The lazy
// sweep itself runs after the world resumes.
func (h *Heap) finishConcMark(p *firefly.Proc) {
	cm := h.cm
	if !cm.active {
		panic("heap: finishConcMark without an active cycle")
	}
	for !h.m.StopTheWorld(p) {
	}
	defer h.m.ResumeTheWorld(p)
	start := p.Now()
	cm.active = false

	// Residual drain: barrier shades may have left grey objects behind.
	residual, words := 0, 0
	for {
		batch := cm.take(concMarkSliceObjects)
		if len(batch) == 0 {
			break
		}
		for _, o := range batch {
			n, _ := h.scanBlack(o)
			words += n
		}
		residual += len(batch)
	}
	cm.marked += uint64(residual)

	// Prune the entry table to marked objects, exactly as the serial
	// collector does: a dead entry's young referents die with it at
	// the next scavenge. The dead object itself is reclaimed by the
	// sweep; clearing its remembered bit here keeps the header
	// consistent with table membership in the interim.
	kept := h.remembered[:0]
	for _, o := range h.remembered {
		if h.Header(o).Marked() {
			kept = append(kept, o)
		} else {
			h.SetHeader(o, h.Header(o).SetRemembered(false))
		}
	}
	h.remembered = kept

	// Sweep bounds: objects allocated after this window are unmarked
	// but live above the limit, so the sweep never sees them. The free
	// list is rebuilt from scratch — carving stays disabled until the
	// sweep publishes the new spans.
	cm.sweepLimit = h.old.next
	cm.sweepPending = true
	h.oldFree = h.oldFree[:0]

	c := h.m.Costs()
	pause := h.closeConcWindow(p, start, c.ConcMarkFinal+
		c.ConcMarkPerObject*firefly.Time(residual)+
		c.ConcMarkPerWord*firefly.Time(words))
	h.rec.Emit(trace.KConcMarkFinal, p.ID(), int64(p.Now()), int64(residual), int64(pause), "")
	h.rec.Emit(trace.KGCPause, p.ID(), int64(p.Now()), int64(pause), 1, "")

	// Merge the cycle counters under the stopped world.
	h.stats.ConcMarkCycles++
	h.stats.ConcMarkSlices += cm.slices
	h.stats.ConcMarkMarked += cm.marked
	h.stats.ConcMarkShaded += cm.shaded

	runHooks(h.postGC)
}

// closeConcWindow ends a stop-the-world window of the marking cycle
// opened at start: p pays cost, every other processor stalls to p's
// clock, and the window is recorded as one full-GC pause, which it
// returns for the caller's trace events.
func (h *Heap) closeConcWindow(p *firefly.Proc, start, cost firefly.Time) firefly.Time {
	p.Advance(cost)
	h.m.StallOthers(p, p.Now())
	pause := p.Now() - start
	h.cm.work += pause
	if pause > h.stats.FullGCMaxPause {
		h.stats.FullGCMaxPause = pause
	}
	h.lat.Record(trace.FullGCPause, int64(pause))
	h.lat.Record(trace.ConcMarkPause, int64(pause))
	return pause
}

// concMarkSweep walks old space once, outside the pauses: marked
// objects have their bit cleared; dead runs (unmarked objects and
// stale fillers) are coalesced into fresh fillers and published as the
// allocators' free list. Nothing moves, so no reference needs fixing.
// The walk yields every concMarkSweepBatch objects so mutators (and
// their scavenges) interleave; dead objects are unreachable, which is
// what makes the concurrent overwrite safe.
func (h *Heap) concMarkSweep(p *firefly.Proc) {
	cm := h.cm
	c := h.m.Costs()

	var spans []freeSpan
	reclaimedWords, reclaimedObjs := uint64(0), uint64(0)
	runBase, runLen := uint64(0), uint64(0)
	flush := func() {
		if runLen > 0 {
			h.fillGap(runBase, runBase+runLen)
			spans = append(spans, freeSpan{base: runBase, words: int(runLen)})
			runLen = 0
		}
	}

	batch := 0
	charge := func() {
		cost := c.ConcMarkSweepObj * firefly.Time(batch)
		p.Advance(cost)
		cm.work += cost
		batch = 0
	}
	for a := h.old.base; a < cm.sweepLimit; {
		o := object.FromAddr(a)
		hd := h.Header(o)
		size := uint64(hd.SizeWords())
		if hd.Marked() {
			// Clear the mark for the next cycle.
			h.SetHeader(o, hd.SetMarked(false))
			flush()
		} else {
			if runLen == 0 {
				runBase = a
			}
			runLen += size
			if !h.isFiller(a) {
				reclaimedWords += size
				reclaimedObjs++
			}
		}
		a += size
		batch++
		if batch >= concMarkSweepBatch {
			charge()
			p.Yield()
		}
	}
	flush()
	if batch > 0 {
		charge()
	}

	// Publish the rebuilt free list and re-enable carving under the
	// allocation lock, which every old-space carve holds.
	h.allocLock.Acquire(p)
	h.oldFree = spans
	cm.sweepPending = false
	h.allocLock.Release(p)

	h.stats.ReclaimedOldWords += reclaimedWords
	h.rec.Emit(trace.KConcMarkSweep, p.ID(), int64(p.Now()),
		int64(reclaimedObjs), int64(reclaimedWords), "")
}

// fullCollectConc is FullCollect's ConcMark body: the whole cycle runs
// synchronously on the requesting processor (begin window → bounded
// slices with yields between them → finalize window → lazy sweep), so
// callers observe the same contract as the serial collector — on
// return, dead old space has been reclaimed. Concurrency comes from
// what happens *during* the call: mutator quanta interleave with the
// slices and the sweep instead of stalling for the whole collection.
func (h *Heap) fullCollectConc(p *firefly.Proc) {
	cm := h.cm
	if cm.cycle {
		// Another processor asked between two of this cycle's slices;
		// the cycle will reclaim the space that caller wanted.
		return
	}
	cm.cycle = true
	defer func() { cm.cycle = false }()

	h.startConcMark(p)
	for h.concMarkSlice(p, concMarkSliceObjects) > 0 {
		p.Yield()
	}
	h.finishConcMark(p)
	h.concMarkSweep(p)

	h.stats.FullCollections++
	h.stats.FullGCTime += cm.work
	h.rec.Emit(trace.KFullGCEnd, p.ID(), int64(p.Now()), int64(h.stats.ReclaimedOldWords), 0, "")
	h.rec.Emit(trace.KHeapOccupancy, p.ID(), int64(p.Now()),
		int64(h.eden.next-h.eden.base), int64(h.old.next-h.old.base), "")
}
