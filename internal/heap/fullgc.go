package heap

import (
	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/trace"
)

// FullCollect performs a stop-the-world full collection: a scavenge to
// empty eden, then mark-and-compact over old space (Berkeley Smalltalk
// reclaimed its old space with offline compaction; MS inherits the
// design — the world is stopped either way).
//
// The compactor is a classic sliding (Lisp-2 style) collector whose
// forwarding table is indexed by address (slide): the marked objects
// below the first dead one stay where they are and cost a reference to
// them one compare; above it, the table has an entry per two words.
// Every loop looks at an object through refWords and tests a word
// before it calls on it. Everything below old space (the immortal
// nil/true/false area) never moves.
func (h *Heap) FullCollect(p *firefly.Proc) {
	if h.cfg.ConcMark {
		// Concurrent marking replaces the stop-the-world mark-compact:
		// same synchronous contract, bounded pauses (concmark.go).
		h.fullCollectConc(p)
		return
	}
	if h.par {
		if !h.m.StopTheWorld(p) {
			// Another processor collected while we waited; whatever
			// space pressure prompted this call has been relieved.
			return
		}
		defer h.m.ResumeTheWorld(p)
	}
	start := p.Now()
	h.rec.Emit(trace.KFullGCBegin, p.ID(), int64(start), 0, 0, "")

	// Empty eden and one survivor space first, so new space holds only
	// the past-survivor objects and every other live object is in old
	// space.
	h.Scavenge(p)
	runHooks(h.preGC)
	h.inGC = true
	defer func() { h.inGC = false }()

	// ---- Mark phase: trace the full graph from the registered roots.
	h.visitAllRoots(h.markRoot)
	marked := uint64(0)
	base := h.old.base
	for n := len(h.markStack); n > 0; n = len(h.markStack) {
		a := h.markStack[n-1]
		h.markStack = h.markStack[:n-1]
		marked++
		for _, w := range h.refWords(a) {
			if w&1 == 0 && w >= base {
				h.mark(w)
			}
		}
	}

	// ---- Plan phase: the marked prefix of old space stays put; every
	// marked object above it gets its sliding address in the table.
	end := h.old.next
	first := h.old.base
	for first < end && object.Header(h.mem[first]).Marked() {
		first += uint64(object.Header(h.mem[first]).SizeWords())
	}
	if need := int(end-first) / 2; need > cap(h.plan.to) {
		h.plan.to = make([]uint32, need)
	} else {
		h.plan.to = h.plan.to[:need]
	}
	h.plan.first = first
	s := h.plan
	dst := first
	reclaimed := uint64(0)
	for a := first; a < end; {
		hd := object.Header(h.mem[a])
		size := uint64(hd.SizeWords())
		if hd.Marked() {
			s.to[(a-first)>>1] = uint32(dst)
			dst += size
		} else {
			reclaimed += size
		}
		a += size
	}

	// ---- Fixup phase: update every reference — roots, the surviving
	// new space, the entry table, and (below) live old-space objects.
	// In new space, a reference to an *unmarked* old object can only
	// occur inside a dead survivor (one kept alive by the last
	// scavenge's remembered set through a now-dead old object); such
	// references are nilled so they never dangle into compacted-over
	// memory. Nothing below first is dead, so only a reference the plan
	// covers needs the test. The survivors' own mark bits go here too.
	h.visitAllRoots(h.slideRoot)
	past := &h.surv[h.past]
	for a := past.base; a < past.next; {
		ws := h.refWords(a)
		for i, w := range ws {
			if !s.covers(w) {
				continue
			}
			if object.Header(h.mem[w]).Marked() {
				ws[i] = s.of(w)
			} else {
				ws[i] = uint64(object.Nil)
			}
		}
		hd := object.Header(h.mem[a])
		h.mem[a] = uint64(hd.SetMarked(false))
		a += uint64(hd.SizeWords())
	}

	// The remembered set references old objects: forward the entries
	// (dead entries were unmarked old objects; they can only be dead if
	// nothing references them, and the set is not a root, so drop them).
	kept := h.remembered[:0]
	for _, o := range h.remembered {
		if h.Header(o).Marked() {
			kept = append(kept, object.OOP(s.of(uint64(o))))
		}
	}
	h.remembered = kept

	// ---- Move phase: re-point each marked object's references, clear
	// its mark bit and slide it down. A slide overwrites only words
	// below the object, all of them dead or already moved.
	for a := h.old.base; a < end; {
		hd := object.Header(h.mem[a])
		size := uint64(hd.SizeWords())
		if hd.Marked() {
			ws := h.refWords(a)
			for i, w := range ws {
				if nw := s.of(w); nw != w {
					ws[i] = nw
				}
			}
			h.mem[a] = uint64(hd.SetMarked(false))
			if a >= first {
				t := uint64(s.to[(a-first)>>1])
				copy(h.mem[t:t+size], h.mem[a:a+size])
			}
		}
		a += size
	}
	h.oldHigh = max(h.oldHigh, h.old.next)
	h.old.next = dst

	// Accounting: a full collection costs per live object and word,
	// and stalls every other processor.
	c := h.m.Costs()
	p.Advance(c.ScavengeBase*4 +
		c.ScavengePerObject*firefly.Time(marked) +
		c.ScavengePerWord*firefly.Time(dst-h.old.base))
	h.m.StallOthers(p, p.Now())

	pause := p.Now() - start
	h.stats.FullCollections++
	h.stats.FullGCTime += pause
	if pause > h.stats.FullGCMaxPause {
		h.stats.FullGCMaxPause = pause
	}
	h.stats.ReclaimedOldWords += reclaimed
	// The pause includes the nested eden-emptying scavenge, which
	// also recorded itself in ScavengePause — the distributions
	// overlap by design, like FullGCTime and ScavengeTime.
	h.lat.Record(trace.FullGCPause, int64(pause))
	h.rec.Emit(trace.KFullGCEnd, p.ID(), int64(p.Now()), int64(reclaimed), 0, "")
	h.rec.Emit(trace.KGCPause, p.ID(), int64(p.Now()), int64(pause), 1, "")
	h.rec.Emit(trace.KHeapOccupancy, p.ID(), int64(p.Now()),
		int64(h.eden.next-h.eden.base), int64(h.old.next-h.old.base), "")
	runHooks(h.postGC)
}

// slide is the compactor's plan for one full collection: the object at
// first+2i moves to to[i], and nothing below first moves. Only the
// entries of marked objects are written, and only those are read: every
// reference that survives to the fix-up names a marked object.
type slide struct {
	first uint64
	to    []uint32
}

// covers reports whether w is a reference into the moved extent.
func (s slide) covers(w uint64) bool {
	return w&1 == 0 && (w-s.first)>>1 < uint64(len(s.to))
}

// of answers where the plan puts the object that w refers to; w itself
// when w is not a reference into the moved extent.
func (s slide) of(w uint64) uint64 {
	if s.covers(w) {
		return uint64(s.to[(w-s.first)>>1])
	}
	return w
}

// mark greys the object at address w, old or new: sets its mark bit and
// stacks it for tracing, once. The caller has tested that w is a
// reference at or above old space (immediates, the absent marker and the
// immortals are not marked).
func (h *Heap) mark(w uint64) {
	if hd := object.Header(h.mem[w]); !hd.Marked() {
		h.mem[w] = uint64(hd.SetMarked(true))
		h.markStack = append(h.markStack, w)
	}
}

// visitAllRoots applies visit to every registered root slot, root
// function, and handle.
func (h *Heap) visitAllRoots(visit func(*object.OOP)) {
	for _, slot := range h.rootSlots {
		visit(slot)
	}
	for _, f := range h.rootFuncs {
		f(visit)
	}
	for _, hp := range h.handlePools {
		for i := range hp.slots {
			visit(&hp.slots[i])
		}
	}
}
