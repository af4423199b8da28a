package heap

import (
	"fmt"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/trace"
)

// Scavenge performs one stop-the-world generation scavenge on processor
// p. By default p is the single scavenger (the paper applies
// serialization to garbage collection: "all of the processes are
// synchronized with a global flag and the V interprocess communication
// mechanism"); with Config.ParScavenge every processor is a scavenge
// worker, all of them simulated on p (parscavenge.go).
//
// Live new-space objects are copied to the future survivor space (or
// tenured into old space once they have survived TenureAge scavenges, or
// when the survivor space overflows); eden and the past survivor space
// are then reset. Every registered root slot, root function, and handle
// is updated; pre/post hooks let the interpreter flush caches of raw
// oops. Every other processor is stalled to the scavenge end before the
// world resumes.
func (h *Heap) Scavenge(p *firefly.Proc) {
	// A false return means another processor collected while we waited
	// our turn; our allocation failure is resolved, so skip the
	// collection and let the caller retry.
	if !h.m.StopTheWorld(p) {
		return
	}
	defer h.m.ResumeTheWorld(p)
	h.scavenge(p)
}

// scavenge is Scavenge inside a window its caller already holds.
//
//msvet:stw-entry every caller holds the world stopped: Scavenge, FullCollect, TenureAll and startConcMark open the window around the call
func (h *Heap) scavenge(p *firefly.Proc) {
	if h.inGC {
		panic("heap: recursive scavenge")
	}
	h.inGC = true
	defer func() { h.inGC = false }()

	start := p.Now()
	h.rec.Emit(trace.KScavengeBegin, p.ID(), int64(start), 0, 0, "")
	h.rec.Emit(trace.KHeapOccupancy, p.ID(), int64(start),
		int64(h.eden.next-h.eden.base), int64(h.old.next-h.old.base), "")
	h.gcAt = int64(start)
	runHooks(h.preGC)
	if h.alp != nil {
		// The copy pass re-keys each surviving object's allocation site
		// from its old address to its new one.
		h.siteNext = make(map[uint64]int)
	}

	objsBefore := h.stats.CopiedObjects
	wordsBefore := h.stats.CopiedWords

	// Phases 1–3: seed the workers from the roots and the entry table,
	// drain them, and charge the copy.
	s := &h.scav
	s.start(h, p)
	w := s.ws[0]
	toScan, oldScan := w.to.next, w.old.next // where a lone worker's Cheney scan starts
	s.seed(h)
	if s.shared {
		s.drainDet(h)
	} else {
		s.cheney(h, w, toScan, oldScan)
	}
	h.finishScavenge(s, p, start)

	objs := h.stats.CopiedObjects - objsBefore
	words := h.stats.CopiedWords - wordsBefore

	// Phase 4: flip. Eden and the old past-survivor space are free.
	h.eden.next = h.eden.base
	h.surv[h.past].next = h.surv[h.past].base
	h.past = 1 - h.past
	h.resetTLABs()
	if h.alp != nil {
		h.siteByAddr = h.siteNext
		h.siteNext = nil
	}

	pause := p.Now() - start
	h.stats.Scavenges++
	h.stats.LastSurvivors = words
	h.stats.ScavengeTime += pause
	if pause > h.stats.ScavengeMaxPause {
		h.stats.ScavengeMaxPause = pause
	}
	h.lat.Record(trace.ScavengePause, int64(pause))
	h.rec.Emit(trace.KScavengeEnd, p.ID(), int64(p.Now()), int64(objs), int64(words), "")
	h.rec.Emit(trace.KGCPause, p.ID(), int64(p.Now()), int64(pause), 0, "")
	h.rec.Emit(trace.KHeapOccupancy, p.ID(), int64(p.Now()),
		int64(h.eden.next-h.eden.base), int64(h.old.next-h.old.base), "")
	h.verifyWriteBarrier(p)
	runHooks(h.postGC)
}

// start readies the workers for one scavenge: one per processor under
// ParScavenge, else the paper's single scavenger, processor p. A lone
// worker's copy buffers are the whole free part of the future survivor
// space and of old space, so it never carves a chunk; finishScavenge
// moves the spaces' next pointers past what it used.
func (s *parScav) start(h *Heap, p *firefly.Proc) {
	nw := 1
	if h.cfg.ParScavenge {
		nw = h.m.NumProcs()
	}
	for len(s.crew) < nw {
		s.crew = append(s.crew, new(scavWorker))
	}
	s.ws, s.shared, s.dealt = s.crew[:nw], nw > 1, 0
	s.to = &h.surv[1-h.past]
	s.to.next = s.to.base
	for i, w := range s.ws {
		w.id, w.to, w.old, w.tally = i, bump{}, bump{}, tally{}
		w.wl.head, w.wl.buf = 0, w.wl.buf[:0]
		w.remembered = w.remembered[:0]
	}
	if !s.shared {
		w := s.ws[0]
		w.id = p.ID()
		w.to = bump{next: s.to.next, limit: s.to.limit}
		w.old = bump{next: h.old.next, limit: h.old.limit}
	}
}

// seed deals every reference into new space from outside it to the
// workers, in registration order: root slots, root functions (the
// interpreter's inline-cache visitor visits in sorted-oop order), the
// handle pools, then the entry table. Root slots and entry-table
// objects go round-robin; each handle pool goes to the worker whose
// processor owns it (a replication row). The entry table is rebuilt
// from the workers' kept lists when the scavenge finishes.
func (s *parScav) seed(h *Heap) {
	for _, slot := range h.rootSlots {
		h.seedRoot(slot)
	}
	for _, f := range h.rootFuncs {
		f(h.seedRoot)
	}
	for pi, hp := range h.handlePools {
		w := s.ws[pi%len(s.ws)]
		for i := range hp.slots {
			if v := hp.slots[i]; v.IsPtr() && v.Addr() >= h.newBase {
				s.give(h, w, greyItem{slot: &hp.slots[i]})
			}
		}
	}
	for i, o := range h.remembered {
		s.give(h, s.ws[i%len(s.ws)], greyItem{obj: o})
	}
	h.remembered = h.remembered[:0]
}

// deal queues one root slot that refers to new space with the next
// worker, round-robin. A lone worker forwards its root slots on the
// spot instead (New builds the visitor that picks).
func (s *parScav) deal(h *Heap, slot *object.OOP) {
	if v := *slot; !v.IsPtr() || v.Addr() < h.newBase {
		return
	}
	s.ws[s.dealt].wl.push(greyItem{slot: slot})
	s.dealt = (s.dealt + 1) % len(s.ws)
}

// give hands w one seed. A lone worker processes it on the spot, which
// is the first two phases of Cheney's algorithm; workers that share the
// drain queue it.
func (s *parScav) give(h *Heap, w *scavWorker, it greyItem) {
	if s.shared {
		w.wl.push(it)
		return
	}
	h.scanGrey(w, it)
}

// cheney is a lone worker's drain: two scan pointers chase the copy
// frontiers of its survivor and old-space buffers until both stop.
func (s *parScav) cheney(h *Heap, w *scavWorker, toScan, oldScan uint64) {
	for toScan < w.to.next || oldScan < w.old.next {
		for toScan < w.to.next {
			o := object.FromAddr(toScan)
			toScan += uint64(h.Header(o).SizeWords())
			h.scanGrey(w, greyItem{obj: o})
		}
		for oldScan < w.old.next {
			o := object.FromAddr(oldScan)
			oldScan += uint64(h.Header(o).SizeWords())
			h.scanGrey(w, greyItem{obj: o})
		}
	}
}

// scanGrey processes one work item: forward a root slot or handle in
// place, or scan a grey object through refWords, forwarding each word
// that references new space and keeping an old object in the entry
// table exactly while it still references new space.
func (h *Heap) scanGrey(w *scavWorker, it greyItem) {
	if it.slot != nil {
		*it.slot = h.parForward(w, *it.slot)
		return
	}
	refsNew := false
	newBase := h.newBase
	ws := h.refWords(it.obj.Addr())
	for i, wd := range ws {
		if wd&1 != 0 || wd < newBase {
			continue
		}
		nw := uint64(h.parForward(w, object.OOP(wd)))
		ws[i] = nw
		if nw >= newBase {
			refsNew = true
		}
	}
	if it.obj.Addr() >= newBase {
		return
	}
	if hd := h.Header(it.obj); refsNew {
		if !hd.Remembered() {
			h.SetHeader(it.obj, hd.SetRemembered(true))
		}
		w.remembered = append(w.remembered, it.obj)
	} else if hd.Remembered() {
		h.SetHeader(it.obj, hd.SetRemembered(false))
	}
}

// parForward returns o's new location for worker w, copying it out of
// from-space on its first visit (an address already in the future
// survivor space is a copy: a root slot registered twice). A lone
// worker leaves the copy to its Cheney scan; workers that share the
// drain charge it to their own cost and queue it.
func (h *Heap) parForward(w *scavWorker, o object.OOP) object.OOP {
	addr := o.Addr()
	if !o.IsPtr() || addr < h.newBase {
		return o
	}
	hd := object.Header(h.mem[addr])
	if hd.Forwarded() {
		return object.OOP(h.mem[addr+1])
	}
	s := &h.scav
	if s.to.contains(addr) {
		return o
	}
	size := hd.SizeWords()
	age := hd.Age() + 1
	tenured := age >= h.cfg.TenureAge
	if !tenured && !w.to.fits(size) {
		// Overflow tenuring, unless a shared drain carves another chunk.
		tenured = !(s.shared && h.carveChunk(w, &w.to, s.to, size))
	}
	var dst uint64
	switch {
	case !tenured:
		dst = w.to.take(size)
	case w.old.fits(size) || s.shared && h.carveChunk(w, &w.old, &h.old, size):
		dst = w.old.take(size)
	default:
		panic(OOMError{NeedWords: size})
	}
	if h.alp != nil { // deterministic mode only (core enforces it): the site maps never race
		h.noteCopy(addr, dst, size, age, tenured)
	}
	if tenured {
		at := h.gcAt
		if s.shared {
			at += int64(w.cost)
		}
		age = 0
		w.tenuredObjects++
		w.tenuredWords += uint64(size)
		h.rec.Emit(trace.KTenure, w.id, at, int64(size), 0, "")
	}
	nh := hd.SetAge(age).SetRemembered(false)
	if tenured && h.allocBlack(dst) {
		// Born black under an active concurrent mark: its old-space
		// referents were shaded while it was young (concmark.go).
		nh = nh.SetMarked(true)
	}
	w.copiedObjects++
	w.copiedWords += uint64(size)
	copy(h.mem[dst:dst+uint64(size)], h.mem[addr:addr+uint64(size)])
	h.mem[dst], h.mem[addr+1], h.mem[addr] = uint64(nh), dst, uint64(hd.SetForwarded())
	if s.shared { // a lone worker's cost is charged from its counts when it finishes
		c := h.m.Costs()
		w.cost += c.ScavengePerObject + c.ScavengePerWord*firefly.Time(size)
		w.wl.push(greyItem{obj: object.FromAddr(dst)})
	}
	return object.FromAddr(dst)
}

// finishScavenge retires the copy buffers, merges the workers' results
// into the statistics and the rebuilt entry table (worker order), and
// charges ScavengeBase + max(worker costs) + ScavengeTerm: each
// worker's processor pays its own cost and the others stall to the end.
// A lone worker pays no termination barrier: base + per-object +
// per-word, the paper's serial scavenge.
func (h *Heap) finishScavenge(s *parScav, p *firefly.Proc, start firefly.Time) {
	c := h.m.Costs()
	longPole, maxCost := 0, firefly.Time(0)
	var sumCost firefly.Time
	var sumSteals uint64
	for i, w := range s.ws {
		if s.shared {
			h.fillGap(w.to.next, w.to.limit)
			h.fillGap(w.old.next, w.old.limit)
		} else {
			s.to.next, h.old.next = w.to.next, w.old.next
			w.cost = c.ScavengePerObject*firefly.Time(w.copiedObjects) +
				c.ScavengePerWord*firefly.Time(w.copiedWords)
		}
		h.stats.CopiedObjects += w.copiedObjects
		h.stats.CopiedWords += w.copiedWords
		h.stats.TenuredObjects += w.tenuredObjects
		h.stats.TenuredWords += w.tenuredWords
		h.stats.ScavengeSteals += w.steals
		h.remembered = append(h.remembered, w.remembered...)
		if w.cost > maxCost {
			longPole, maxCost = i, w.cost
		}
		sumCost += w.cost
		sumSteals += w.steals
	}
	if len(h.remembered) > h.stats.RememberedPeak {
		h.stats.RememberedPeak = len(h.remembered)
	}

	term := firefly.Time(0)
	if s.shared {
		term = c.ScavengeTerm
	}
	for _, w := range s.ws {
		h.m.Proc(w.id).Advance(w.cost)
	}
	p.Advance(c.ScavengeBase + term)
	p.StallUntil(start + c.ScavengeBase + maxCost + term)
	h.m.StallOthers(p, p.Now())
	// Phase split: rendezvous, copy until the long pole, termination.
	h.lat.Record(trace.ScavRendezvous, int64(c.ScavengeBase))
	h.lat.Record(trace.ScavCopy, int64(maxCost))
	h.lat.Record(trace.ScavTerm, int64(term))
	if !s.shared {
		return
	}
	h.stats.ParScavenges++
	h.lat.AddCriticalPath(trace.GCCriticalPath{
		Scavenge:      h.stats.ParScavenges,
		LongPole:      longPole,
		LongPoleTicks: int64(maxCost),
		SumTicks:      int64(sumCost),
		Workers:       len(s.ws),
		Steals:        sumSteals,
	})
	for i, w := range s.ws {
		h.rec.Emit(trace.KScavWorkerBegin, i, h.gcAt, int64(w.steals), 0, "")
		h.rec.Emit(trace.KScavWorkerEnd, i, h.gcAt+int64(w.cost),
			int64(w.copiedObjects), int64(w.copiedWords), "")
	}
}

// noteCopy tells the allocation-site profiler that the scavenger copied
// the size-word object at from to dst at the given age: the age census,
// then, for an object whose site is known, its tenure or — on an
// eden-born object's first copy — its survival; a survivor's site moves
// with it to dst. Called only when the profiler is on.
func (h *Heap) noteCopy(from, dst uint64, size, age int, tenured bool) {
	h.alp.NoteAge(age, int64(size))
	id, ok := h.siteByAddr[from]
	if !ok {
		return
	}
	if tenured {
		h.alp.NoteTenured(id, int64(size))
		return
	}
	if from >= h.eden.base {
		h.alp.NoteSurvived(id, int64(size))
	}
	h.siteNext[dst] = id
}

// CheckInvariants walks the heap verifying structural invariants; it is
// used by tests and panics on corruption.
//
//msvet:atomic-excluded test-only invariant walk over a quiesced heap; callers stop the mutators before calling
func (h *Heap) CheckInvariants() {
	checkRegion := func(name string, base, next uint64) {
		a := base
		for a < next {
			hd := object.Header(h.mem[a])
			size := hd.SizeWords()
			if size < object.HeaderWords || a+uint64(size) > next {
				panic(fmt.Sprintf("heap: bad object size %d at %d in %s", size, a, name))
			}
			if hd.Forwarded() {
				panic(fmt.Sprintf("heap: forwarded object at %d in %s outside scavenge", a, name))
			}
			for _, w := range h.refWords(a) {
				if f := object.OOP(w); f.IsPtr() && f != object.Invalid {
					h.checkPointer(name, a, f)
				}
			}
			a += uint64(size)
		}
	}
	checkRegion("old", h.old.base, h.old.next)
	checkRegion("past-survivor", h.surv[h.past].base, h.surv[h.past].next)
	if h.cfg.Policy == AllocSerialized {
		// Under per-processor allocation, eden has per-chunk gaps of
		// unallocated words and cannot be walked linearly.
		checkRegion("eden", h.eden.base, h.eden.next)
	}
}

func (h *Heap) checkPointer(region string, from uint64, f object.OOP) {
	a := f.Addr()
	ok := a < uint64(object.FirstFreeAddress) ||
		(a >= h.old.base && a < h.old.next) ||
		h.surv[h.past].contains(a) && a < h.surv[h.past].next ||
		(a >= h.eden.base && a < h.eden.next)
	// Pointers into TLAB-reserved but unallocated eden are also fine;
	// contains-check above uses eden.next which covers reserved chunks.
	if !ok {
		panic(fmt.Sprintf("heap: object at %d in %s points to dead region (%d)", from, region, a))
	}
}
