package heap

import (
	"fmt"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/trace"
)

// Scavenge performs one stop-the-world generation scavenge on processor
// p, which acts as the single scavenger (the paper applies serialization
// to garbage collection: "all of the processes are synchronized with a
// global flag and the V interprocess communication mechanism").
//
// Live new-space objects are copied to the future survivor space (or
// tenured into old space once they have survived TenureAge scavenges, or
// when the survivor space overflows); eden and the past survivor space
// are then reset. Every registered root slot, root function, and handle
// is updated; pre/post hooks let the interpreter flush caches of raw
// oops. On return, every other processor's clock has been advanced to
// the scavenge end, modelling the rendezvous stall.
func (h *Heap) Scavenge(p *firefly.Proc) {
	if h.par {
		// Parallel host mode: really stop the world. A false return
		// means another processor collected while we waited our turn;
		// our allocation failure is resolved, so skip the collection
		// and let the caller retry.
		if !h.m.StopTheWorld(p) {
			return
		}
		defer h.m.ResumeTheWorld(p)
	}
	if h.inGC {
		panic("heap: recursive scavenge")
	}
	h.inGC = true
	defer func() { h.inGC = false }()

	start := p.Now()
	h.rec.Emit(trace.KScavengeBegin, p.ID(), int64(start), 0, 0, "")
	h.rec.Emit(trace.KHeapOccupancy, p.ID(), int64(start),
		int64(h.eden.next-h.eden.base), int64(h.old.next-h.old.base), "")
	h.gcProc, h.gcAt = p.ID(), int64(start)
	runHooks(h.preGC)
	if h.alp != nil {
		// The copy pass re-keys each surviving object's allocation site
		// from its old address to its new one.
		h.siteNext = make(map[uint64]int)
	}

	objsBefore := h.stats.CopiedObjects
	wordsBefore := h.stats.CopiedWords

	to := &h.surv[1-h.past]
	to.next = to.base
	h.to = to

	// Phases 1–3 and their cost accounting: serial Cheney scan, or the
	// cooperative parallel copy (parscavenge.go).
	if h.cfg.ParScavenge {
		h.parScavenge(p, start)
	} else {
		h.serialScavenge(p)
	}

	objs := h.stats.CopiedObjects - objsBefore
	words := h.stats.CopiedWords - wordsBefore

	// Phase 4: flip. Eden and the old past-survivor space are free.
	h.eden.next = h.eden.base
	h.surv[h.past].next = h.surv[h.past].base
	h.past = 1 - h.past
	h.resetTLABs()
	h.to = nil
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

// serialScavenge is the paper's single-scavenger path: phases 1–3 of
// the collection plus the cost accounting (the scavenger pays base +
// per-object + per-word; every other processor stalls until it
// finishes). The caller has already reset h.to.
func (h *Heap) serialScavenge(p *firefly.Proc) {
	objsBefore := h.stats.CopiedObjects
	wordsBefore := h.stats.CopiedWords
	to := h.to
	h.oldScan = h.old.next

	// Phase 1: forward the roots.
	h.visitAllRoots(h.fwdRoot)

	// Phase 2: scan the entry table. Remembered old objects may hold
	// the only references to live new objects. After scanning, an
	// object stays in the table only if it still refers to new space.
	kept := h.remembered[:0]
	for _, o := range h.remembered {
		if h.scanObject(o) {
			kept = append(kept, o)
		} else {
			h.SetHeader(o, h.Header(o).SetRemembered(false))
		}
	}
	h.remembered = kept

	// Phase 3: Cheney scan of the future survivor space and of objects
	// tenured during this scavenge, until both frontiers are exhausted.
	scan := to.base
	for scan < to.next || h.oldScan < h.old.next {
		for scan < to.next {
			o := object.FromAddr(scan)
			h.scanObject(o)
			scan += uint64(h.Header(o).SizeWords())
		}
		for h.oldScan < h.old.next {
			o := object.FromAddr(h.oldScan)
			h.oldScan += uint64(h.Header(o).SizeWords())
			if h.scanObject(o) {
				// A tenured object still referencing new space
				// enters the entry table.
				hd := h.Header(o)
				if !hd.Remembered() {
					h.SetHeader(o, hd.SetRemembered(true))
					h.remembered = append(h.remembered, o)
				}
			}
		}
	}

	objs := h.stats.CopiedObjects - objsBefore
	words := h.stats.CopiedWords - wordsBefore
	c := h.m.Costs()
	copyTicks := c.ScavengePerObject*firefly.Time(objs) +
		c.ScavengePerWord*firefly.Time(words)
	// Serial phase split: the base charge models the rendezvous,
	// the per-object/word charge is the copy work, and termination
	// is immediate (one scavenger, nothing to join).
	h.lat.Record(trace.ScavRendezvous, int64(c.ScavengeBase))
	h.lat.Record(trace.ScavCopy, int64(copyTicks))
	h.lat.Record(trace.ScavTerm, 0)
	p.Advance(c.ScavengeBase + copyTicks)
	h.m.StallOthers(p, p.Now())
}

// forward returns the new location of o, copying it out of from-space if
// this is its first visit. Non-pointers and old/immortal objects are
// returned unchanged.
func (h *Heap) forward(o object.OOP) object.OOP {
	if !o.IsPtr() || o.Addr() < h.newBase {
		return o
	}
	hd := h.Header(o)
	if hd.Forwarded() {
		return object.OOP(h.mem[o.Addr()+1])
	}
	size := hd.SizeWords()
	age := hd.Age() + 1

	var dst uint64
	tenure := age >= h.cfg.TenureAge || h.to.free() < size
	if tenure {
		if h.old.free() < size {
			panic(OOMError{NeedWords: size})
		}
		dst = h.old.next
		h.old.next += uint64(size)
		h.stats.TenuredObjects++
		h.stats.TenuredWords += uint64(size)
		h.rec.Emit(trace.KTenure, h.gcProc, h.gcAt, int64(size), 0, "")
		age = 0
	} else {
		dst = h.to.next
		h.to.next += uint64(size)
	}
	if h.alp != nil {
		h.noteCopy(o.Addr(), dst, size, hd.Age()+1, tenure)
	}

	copy(h.mem[dst:dst+uint64(size)], h.mem[o.Addr():o.Addr()+uint64(size)])
	// The copy starts life unremembered and unforwarded at its new age.
	nh := hd.SetAge(age).SetRemembered(false)
	if tenure && h.allocBlack(dst) {
		// Tenured into old space while the concurrent marker is active:
		// born black. Its old-space referents are already shaded — the
		// object was young at the snapshot, so the begin window (or the
		// deletion barrier since) captured them.
		nh = nh.SetMarked(true)
	}
	h.mem[dst] = uint64(nh)

	// Leave a forwarding pointer in the old copy.
	h.mem[o.Addr()] = uint64(hd.SetForwarded())
	h.mem[o.Addr()+1] = dst

	h.stats.CopiedObjects++
	h.stats.CopiedWords += uint64(size)
	return object.FromAddr(dst)
}

// noteCopy tells the allocation-site profiler that a scavenger copied
// the size-word object at from to dst at the given age: the age census,
// then, for an object whose site is known, its tenure or — on an
// eden-born object's first copy — its survival; a survivor's site moves
// with it to dst. Both scavengers call it, only when the profiler is on.
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

// scanObject forwards the class word and every pointer field of o,
// reporting whether o still references new space afterwards. Only a
// reference into new space is worth the call: it always moves (or has),
// and always leaves o referencing new space unless it was tenured.
func (h *Heap) scanObject(o object.OOP) bool {
	refsNew := false
	newBase := h.newBase
	ws := h.refWords(o.Addr())
	for i, w := range ws {
		if w&1 != 0 || w < newBase {
			continue
		}
		nw := uint64(h.forward(object.OOP(w)))
		ws[i] = nw
		if nw >= newBase {
			refsNew = true
		}
	}
	return refsNew
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
