package heap

import (
	"sync"
	"sync/atomic"

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
//     slices. In deterministic mode the initiating processor drains one
//     slice per quantum, yielding between slices so the mutators'
//     quanta interleave; in parallel host mode every processor also
//     drains a slice at its safepoint (the machine's conc-assist hook).
//     A deletion barrier in the pointer-store funnels shades the old
//     referent a store is about to overwrite, which keeps every
//     snapshot-reachable object markable; objects allocated or tenured
//     into old space while marking is active are allocated black.
//   - Finalize window (stop-the-world): the residual grey stack is
//     drained (SATB guarantees it runs dry — no mutator runs to refill
//     it), the tri-color invariant is verified, and the entry table is
//     pruned to marked objects. O(residual + table), not O(old).
//   - Lazy sweep (outside the pauses): old space is walked once; live
//     objects have their mark bit cleared, dead runs are coalesced into
//     filler pseudo-objects and published as a free list that the
//     old-space allocators consult before bumping. Old space is never
//     compacted, so no pointer ever needs fixing up.
//
// The recorded full-GC pause under ConcMark is the longest single
// stop-the-world window, which stays bounded as old space grows; the
// serial collector's pause is O(live old data).

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
	// sweep); a second processor requesting a full collection while a
	// cycle runs skips its own, like the parallel scavenger's
	// lost-the-race path.
	cycle atomic.Bool
	// active is true between the snapshot and finalize windows; the
	// store funnels, the allocators, and the machine's assist hook
	// read it from any processor.
	active atomic.Bool
	// sweepPending is true from the finalize window until the lazy
	// sweep publishes its free list: old space then holds dead
	// objects awaiting reclamation, so free-list carving is disabled
	// and the write-barrier verifier skips unmarked objects.
	sweepPending atomic.Bool

	// mu guards the grey stack and the cycle counters: the deletion
	// barrier and the parallel-mode assists push and drain from any
	// processor. Uncontended in deterministic mode.
	//msvet:stw-safe grey-stack lock: shades and slice batches hold it for bounded straight-line work with no safepoint inside, so no mutator is ever parked holding it
	mu     sync.Mutex
	grey   []object.OOP
	marked uint64 // objects blackened this cycle
	shaded uint64 // deletion-barrier shades this cycle
	slices uint64 // bounded slices drained outside the windows

	proc       int          // initiating processor
	at         int64        // cycle begin time (trace attribution)
	work       firefly.Time // collector ticks charged this cycle
	sweepLimit uint64       // old.next at finalize: the sweep walks [old.base, sweepLimit)
}

// push appends o to the grey stack.
func (cm *concMark) push(o object.OOP) {
	cm.mu.Lock()
	cm.grey = append(cm.grey, o)
	cm.mu.Unlock()
}

// take removes up to budget grey objects (newest first, for locality
// with the slice that pushed them).
func (cm *concMark) take(budget int, buf []object.OOP) []object.OOP {
	cm.mu.Lock()
	n := len(cm.grey)
	if n > budget {
		n = budget
	}
	buf = append(buf[:0], cm.grey[len(cm.grey)-n:]...)
	cm.grey = cm.grey[:len(cm.grey)-n]
	cm.mu.Unlock()
	return buf
}

// shadeRef shades v grey if it is an unmarked old-space object. Values
// outside old space — SmallIntegers, immortals, young pointers — are
// ignored: young space is covered by the snapshot window and is never
// traced. Reports whether this call claimed the object.
func (cm *concMark) shadeRef(proc int, v object.OOP) bool {
	h := cm.h
	if !v.IsPtr() || v == object.Invalid {
		return false
	}
	a := v.Addr()
	if a < h.old.base || a >= h.newBase {
		return false
	}
	// White → grey claim. The mark bit is the claim token: exactly one
	// shader wins, so an object is pushed (and later scanned) once.
	if h.par {
		claimed := false
		h.casHeader(v, func(hd object.Header) object.Header {
			claimed = !hd.Marked()
			return hd.SetMarked(true)
		})
		if !claimed {
			return false
		}
	} else {
		hd := h.Header(v)
		if hd.Marked() {
			return false
		}
		h.SetHeader(v, hd.SetMarked(true))
	}
	h.san.OnMarkGrey(proc, cm.at, a)
	cm.push(v)
	return true
}

// deletionBarrier is the SATB write barrier, called from the
// pointer-store funnels (Store, StoreNoCheck, SetClass) before the
// slot at idx is overwritten: the old-space object the slot currently
// references is shaded grey, so a reference that existed at the
// snapshot stays markable even if the mutator erases every copy of it.
// p is nil for StoreNoCheck (no processor at that call site);
// attribution then falls back to the marking processor. The shade
// itself is charged no virtual time — the cost lands when the slice
// scan blackens the object.
func (h *Heap) deletionBarrier(p *firefly.Proc, idx uint64) {
	cm := h.cm
	if !cm.active.Load() {
		return
	}
	old := object.OOP(h.loadWord(idx))
	if !old.IsPtr() || old == object.Invalid {
		return
	}
	a := old.Addr()
	if a < h.old.base || a >= h.newBase {
		return
	}
	proc, at := cm.proc, cm.at
	if p != nil {
		proc, at = p.ID(), int64(p.Now())
	}
	if !h.skipBarrier {
		if cm.shadeRef(proc, old) {
			cm.mu.Lock()
			cm.shaded++
			cm.mu.Unlock()
		}
	}
	if san := h.san; san != nil { // skips the header re-read, not a safety test
		san.OnDeletionBarrier(proc, at, a, object.Header(h.loadWord(a)).Marked())
	}
}

// allocBlack reports whether a fresh old-space object at addr must be
// allocated with its mark bit set: while marking is active, a new
// object cannot be reached by the tracer (it was not in the snapshot),
// so it is born black to survive the sweep.
func (h *Heap) allocBlack(addr uint64) bool {
	return addr < h.newBase && h.cm != nil && h.cm.active.Load()
}

// carveOldFree carves total words from the sweep's free list,
// first-fit, leaving the remainder of the span as a fresh filler so
// old space stays walkable. The caller must serialize calls (the
// allocation lock in mutator paths; AllocateNoGC is deterministic-mode
// only). Carving is disabled while a sweep is rebuilding the list.
func (h *Heap) carveOldFree(total int) (uint64, bool) {
	cm := h.cm
	if cm == nil || cm.sweepPending.Load() {
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

// startConcMark opens a marking cycle. The world is stopped (parallel
// host mode: by the caller; deterministic mode: by construction). One
// scavenge empties eden and the future survivor space, so the only
// young objects are a linear walk of the past survivor space; their
// old-space referents — and the roots' and the immortals' — are shaded
// grey. This conservative young shade closes the SATB hole where a
// young holder of the only young→old edge dies mid-mark: the edge was
// captured here. The remembered set is not a marking root.
func (h *Heap) startConcMark(p *firefly.Proc) {
	cm := h.cm
	if cm.active.Load() {
		panic("heap: concurrent mark cycle already active")
	}
	start := p.Now()
	h.rec.Emit(trace.KFullGCBegin, p.ID(), int64(start), 0, 0, "")
	h.Scavenge(p)
	runHooks(h.preGC)

	cm.mu.Lock()
	cm.grey = cm.grey[:0]
	cm.marked, cm.shaded, cm.slices, cm.work = 0, 0, 0, 0
	cm.mu.Unlock()
	cm.proc, cm.at = p.ID(), int64(start)

	shaded, words := 0, 0
	h.visitAllRoots(func(slot *object.OOP) {
		if cm.shadeRef(p.ID(), *slot) {
			shaded++
		}
	})
	shadeFrom := func(o object.OOP) {
		n, s := h.scanBlack(p.ID(), o)
		words, shaded = words+n, shaded+s
	}
	// The immortal objects never move and are never collected, but
	// their class words (and nil's fields) reference old space.
	for _, fixed := range []object.OOP{object.Nil, object.True, object.False} {
		shadeFrom(fixed)
	}
	past := &h.surv[h.past]
	for a := past.base; a < past.next; a += uint64(object.Header(h.loadWord(a)).SizeWords()) {
		if !h.isFiller(a) {
			shadeFrom(object.FromAddr(a))
		}
	}

	c := h.m.Costs()
	pause := h.closeConcWindow(p, start, c.ConcMarkBegin+c.ConcMarkPerWord*firefly.Time(words))
	h.rec.Emit(trace.KConcMarkBegin, p.ID(), int64(p.Now()), int64(shaded), 0, "")
	h.rec.Emit(trace.KGCPause, p.ID(), int64(p.Now()), int64(pause), 1, "")

	cm.active.Store(true)
	h.m.SetConcMarkActive(true)
}

// scanBlack blackens one grey old object — or, in the snapshot window,
// walks an immortal or a past survivor: the old-space referents of the
// words refWords would hand out are shaded. It loads them one at a time
// through loadWord instead of taking the refWords view because in
// parallel host mode the mutators run while it marks, so every load
// must be atomic. Returns the object's size in words, for cost
// accounting, and how many objects this call shaded.
func (h *Heap) scanBlack(proc int, o object.OOP) (words, shaded int) {
	addr := o.Addr()
	hd := object.Header(h.loadWord(addr))
	end := addr + object.HeaderWords
	if hd.Format() == object.FmtPointers {
		end = addr + uint64(hd.SizeWords())
	}
	for a := addr + 1; a < end; a++ {
		if h.cm.shadeRef(proc, object.OOP(h.loadWord(a))) {
			shaded++
		}
	}
	return hd.SizeWords(), shaded
}

// concMarkSlice drains up to budget grey objects as one bounded slice,
// charging p for the scan. Returns the number of objects blackened
// (0 = the stack was empty). fromAssist suppresses the histogram
// record: only the initiating processor's slices are recorded, so the
// deterministic distributions never race with host-mode assists.
func (h *Heap) concMarkSlice(p *firefly.Proc, budget int, fromAssist bool) int {
	cm := h.cm
	batch := cm.take(budget, nil)
	if len(batch) == 0 {
		return 0
	}
	words := 0
	for _, o := range batch {
		n, _ := h.scanBlack(p.ID(), o)
		words += n
	}
	c := h.m.Costs()
	cost := c.ConcMarkPerObject*firefly.Time(len(batch)) +
		c.ConcMarkPerWord*firefly.Time(words)
	p.Advance(cost)
	cm.mu.Lock()
	cm.marked += uint64(len(batch))
	cm.slices++
	cm.work += cost
	cm.mu.Unlock()
	if !fromAssist {
		h.lat.Record(trace.ConcMarkSlice, int64(cost))
	}
	h.rec.Emit(trace.KConcMarkSlice, p.ID(), int64(p.Now()), int64(len(batch)), int64(cost), "")
	return len(batch)
}

// concAssist is the machine's safepoint hook in parallel host mode:
// a processor passing its quantum boundary while marking is active
// donates one bounded slice, charged to its own clock.
func (h *Heap) concAssist(p *firefly.Proc) {
	cm := h.cm
	if cm == nil || !cm.active.Load() {
		return
	}
	h.concMarkSlice(p, concMarkSliceObjects, true)
}

// finishConcMark closes the cycle under a stopped world: the residual
// grey stack is drained (no mutator runs, so SATB guarantees it
// empties), the tri-color invariant is verified, the entry table is
// pruned to marked objects, and the sweep bounds are captured. The
// lazy sweep itself runs after the world resumes.
func (h *Heap) finishConcMark(p *firefly.Proc) {
	cm := h.cm
	if !cm.active.Load() {
		panic("heap: finishConcMark without an active cycle")
	}
	start := p.Now()
	cm.active.Store(false)
	h.m.SetConcMarkActive(false)

	// Residual drain: barrier shades and in-flight assists may have
	// left grey objects behind.
	residual, words := 0, 0
	for {
		batch := cm.take(concMarkSliceObjects, nil)
		if len(batch) == 0 {
			break
		}
		for _, o := range batch {
			n, _ := h.scanBlack(p.ID(), o)
			words += n
		}
		residual += len(batch)
	}
	cm.mu.Lock()
	cm.marked += uint64(residual)
	cm.mu.Unlock()

	h.verifyTriColor(p)

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
	cm.sweepPending.Store(true)
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
	h.san.ResetMarkClaims()
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

// clearMark resets o's mark bit for the next cycle. In parallel host
// mode the sweep runs concurrently with mutators that may be setting
// the remembered bit or assigning an identity hash, so the update must
// CAS.
func (h *Heap) clearMark(o object.OOP) {
	if h.par {
		h.casHeader(o, func(hd object.Header) object.Header {
			return hd.SetMarked(false)
		})
		return
	}
	h.SetHeader(o, h.Header(o).SetMarked(false))
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
	for a := h.old.base; a < cm.sweepLimit; {
		hd := object.Header(h.loadWord(a))
		size := uint64(hd.SizeWords())
		if hd.Marked() {
			h.clearMark(object.FromAddr(a))
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
			p.Advance(c.ConcMarkSweepObj * firefly.Time(batch))
			cm.mu.Lock()
			cm.work += c.ConcMarkSweepObj * firefly.Time(batch)
			cm.mu.Unlock()
			batch = 0
			p.Yield()
		}
	}
	flush()
	if batch > 0 {
		p.Advance(c.ConcMarkSweepObj * firefly.Time(batch))
		cm.mu.Lock()
		cm.work += c.ConcMarkSweepObj * firefly.Time(batch)
		cm.mu.Unlock()
	}

	// Publish the rebuilt free list and re-enable carving. The
	// allocation lock orders the publication against concurrent
	// old-space carves in parallel host mode.
	h.allocLock.Acquire(p)
	h.oldFree = spans
	cm.sweepPending.Store(false)
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
	if !cm.cycle.CompareAndSwap(false, true) {
		// Another processor's cycle is in flight (parallel host mode);
		// it will reclaim the space this caller wanted.
		return
	}
	defer cm.cycle.Store(false)

	if h.par {
		if !h.m.StopTheWorld(p) {
			return
		}
	}
	h.startConcMark(p)
	if h.par {
		h.m.ResumeTheWorld(p)
	}

	for h.concMarkSlice(p, concMarkSliceObjects, false) > 0 {
		p.Yield()
	}

	if h.par {
		for !h.m.StopTheWorld(p) {
			// A scavenge ran while we waited — legal mid-cycle; we
			// still own the marking cycle and must finalize it.
		}
	}
	h.finishConcMark(p)
	if h.par {
		h.m.ResumeTheWorld(p)
	}

	h.concMarkSweep(p)

	h.stats.FullCollections++
	h.stats.FullGCTime += cm.work
	h.rec.Emit(trace.KFullGCEnd, p.ID(), int64(p.Now()), int64(h.stats.ReclaimedOldWords), 0, "")
	h.rec.Emit(trace.KHeapOccupancy, p.ID(), int64(p.Now()),
		int64(h.eden.next-h.eden.base), int64(h.old.next-h.old.base), "")
}
