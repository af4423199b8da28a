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
// The compactor is a classic sliding (Lisp-2 style) collector with the
// forwarding table held outside the heap. Everything below old space
// (the immortal nil/true/false area) never moves.
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
	for _, f := range h.preGC {
		f()
	}
	h.inGC = true
	defer func() { h.inGC = false }()

	// ---- Mark phase: trace the full graph from the registered roots.
	var stack []object.OOP
	markValue := func(o object.OOP) {
		if !o.IsPtr() || o == object.Invalid || o.Addr() < h.old.base {
			return
		}
		hd := h.Header(o)
		if hd.Marked() {
			return
		}
		h.SetHeader(o, hd.SetMarked(true))
		stack = append(stack, o)
	}
	visit := func(slot *object.OOP) { markValue(*slot) }
	h.visitAllRoots(visit)
	marked := uint64(0)
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		marked++
		addr := o.Addr()
		markValue(object.OOP(h.mem[addr+1])) // class
		hd := h.Header(o)
		if hd.Format() == object.FmtPointers {
			for i := 0; i < hd.BodyWords(); i++ {
				markValue(object.OOP(h.mem[addr+object.HeaderWords+uint64(i)]))
			}
		}
	}

	// ---- Plan phase: compute sliding forwarding addresses for marked
	// old-space objects. The table lives outside the heap.
	forwarding := map[uint64]uint64{}
	dst := h.old.base
	reclaimed := uint64(0)
	for a := h.old.base; a < h.old.next; {
		hd := object.Header(h.mem[a])
		size := uint64(hd.SizeWords())
		if hd.Marked() {
			if dst != a {
				forwarding[a] = dst
			}
			dst += size
		} else {
			reclaimed += size
		}
		a += size
	}

	fwd := func(o object.OOP) object.OOP {
		if !o.IsPtr() || o == object.Invalid {
			return o
		}
		if na, ok := forwarding[o.Addr()]; ok {
			return object.FromAddr(na)
		}
		return o
	}

	// ---- Fixup phase: update every reference — roots, live old-space
	// objects, and everything in the surviving new space. In new space,
	// a reference to an *unmarked* old object can only occur inside a
	// dead survivor (one kept alive by the last scavenge's remembered
	// set through a now-dead old object); such references are nilled so
	// they never dangle into compacted-over memory.
	h.visitAllRoots(func(slot *object.OOP) { *slot = fwd(*slot) })
	fixWord := func(idx uint64, nilDead bool) {
		o := object.OOP(h.mem[idx])
		if !o.IsPtr() || o == object.Invalid {
			return
		}
		if nilDead && o.Addr() >= h.old.base && o.Addr() < h.old.next &&
			!object.Header(h.mem[o.Addr()]).Marked() {
			h.mem[idx] = uint64(object.Nil)
			return
		}
		h.mem[idx] = uint64(fwd(o))
	}
	fixObject := func(a uint64, nilDead bool) {
		hd := object.Header(h.mem[a])
		fixWord(a+1, nilDead)
		if hd.Format() == object.FmtPointers {
			for i := 0; i < hd.BodyWords(); i++ {
				fixWord(a+object.HeaderWords+uint64(i), nilDead)
			}
		}
	}
	for a := h.old.base; a < h.old.next; {
		hd := object.Header(h.mem[a])
		if hd.Marked() {
			fixObject(a, false)
		}
		a += uint64(hd.SizeWords())
	}
	past := &h.surv[h.past]
	for a := past.base; a < past.next; {
		fixObject(a, true)
		a += uint64(object.Header(h.mem[a]).SizeWords())
	}

	// The remembered set references old objects: forward the entries
	// (dead entries were unmarked old objects; they can only be dead if
	// nothing references them, and the set is not a root, so drop them).
	kept := h.remembered[:0]
	for _, o := range h.remembered {
		if h.Header(o).Marked() {
			kept = append(kept, fwd(o))
		}
	}
	h.remembered = kept

	// ---- Move phase: slide marked objects down, clearing mark bits.
	for a := h.old.base; a < h.old.next; {
		hd := object.Header(h.mem[a])
		size := uint64(hd.SizeWords())
		if hd.Marked() {
			target := a
			if na, ok := forwarding[a]; ok {
				target = na
			}
			h.mem[target] = uint64(hd.SetMarked(false))
			copy(h.mem[target+1:target+size], h.mem[a+1:a+size])
			a += size
			continue
		}
		a += size
	}
	h.old.next = dst
	// Clear mark bits in the surviving new space too.
	for a := past.base; a < past.next; {
		hd := object.Header(h.mem[a])
		h.mem[a] = uint64(hd.SetMarked(false))
		a += uint64(hd.SizeWords())
	}

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

	for _, f := range h.postGC {
		f()
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
