package heap

import (
	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/trace"
)

// Allocate creates a new object of the given class with bodyWords logical
// fields (or raw words) and returns its OOP. Pointer bodies are
// initialized to nil, raw bodies to zero.
//
// Allocation follows the paper: under the serialized policy it is "little
// more than incrementing a pointer" guarded by a spinlock; under the
// per-processor policy it bumps a local chunk, refilling from eden under
// the lock. Allocation MAY SCAVENGE, and scavenging moves objects: the
// caller must re-read any raw oops held in locals from handles or
// registered roots afterwards (class is protected internally).
//
//msvet:heap-writer allocator initialization writes target the freshly carved, still-unpublished words of the new object; no other processor holds its OOP until Allocate returns
//msvet:atomic-excluded the fresh words written here are invisible to every other processor (the bump pointer is published under the allocation lock, which is the release fence)
func (h *Heap) Allocate(p *firefly.Proc, class object.OOP, bodyWords int, f object.Format) object.OOP {
	var words, slack int
	if f == object.FmtBytes {
		// bodyWords is a byte count for byte objects.
		words, slack = object.BodyWordsForBytes(bodyWords)
	} else {
		words, slack = object.BodyWordsForFields(bodyWords)
	}
	total := words + object.HeaderWords

	// Protect class across a possible scavenge inside ensureSpace.
	hp := h.handlePools[p.ID()]
	ch := hp.add(class)

	if h.cfg.TortureGC && !h.inGC {
		h.Scavenge(p)
	}

	addr := h.reserve(p, total)
	class = hp.get(ch)
	hp.release(ch)

	hd := object.MakeHeader(total, f, slack)
	if h.allocBlack(addr) {
		// Old-space allocation while the concurrent marker is active:
		// born black so the sweep never reclaims it (concmark.go).
		hd = hd.SetMarked(true)
	}
	h.mem[addr] = uint64(hd)
	h.mem[addr+1] = uint64(class)
	fill := uint64(0)
	if f == object.FmtPointers {
		fill = uint64(object.Nil)
	}
	for i := addr + object.HeaderWords; i < addr+uint64(total); i++ {
		h.mem[i] = fill
	}

	c := h.m.Costs()
	p.Advance(c.Alloc + c.AllocPerWord*firefly.Time(total))
	sh := &h.allocShards[p.ID()]
	sh.allocations.Add(1)
	sh.allocatedWords.Add(uint64(total))
	if ap := h.alp; ap != nil {
		id := h.allocSiteID(p.ID())
		ap.RecordAlloc(id, int64(total))
		if addr >= h.newBase {
			// Old-space (large-object) allocations are attributed but
			// not tracked through the scavenger.
			h.siteByAddr[addr] = id
		}
	}

	o := object.FromAddr(addr)
	if addr < h.newBase && h.InNewSpace(class) {
		// Rare: object allocated directly in old space with a class
		// still in new space must enter the entry table.
		h.storeCheck(p, o, class)
	}
	return o
}

// AllocateNoGC creates an object that is guaranteed not to trigger a
// scavenge; it is used by genesis before the interpreter exists and
// allocates directly in old space. It panics if old space is full.
//
//msvet:heap-writer genesis/old-space allocator writing freshly carved, unpublished words under the allocation lock
//msvet:atomic-excluded runs during genesis or under the allocation lock on words no other processor can yet reference
func (h *Heap) AllocateNoGC(class object.OOP, bodyWords int, f object.Format) object.OOP {
	var words, slack int
	if f == object.FmtBytes {
		words, slack = object.BodyWordsForBytes(bodyWords)
	} else {
		words, slack = object.BodyWordsForFields(bodyWords)
	}
	total := words + object.HeaderWords
	addr := h.takeOld(total)
	hd := object.MakeHeader(total, f, slack)
	if h.allocBlack(addr) {
		hd = hd.SetMarked(true)
	}
	h.mem[addr] = uint64(hd)
	h.mem[addr+1] = uint64(class)
	fill := uint64(0)
	if f == object.FmtPointers {
		fill = uint64(object.Nil)
	}
	for i := addr + object.HeaderWords; i < addr+uint64(total); i++ {
		h.mem[i] = fill
	}
	h.stats.Allocations++
	h.stats.AllocatedWords += uint64(total)
	return object.FromAddr(addr)
}

// largeObjectWords is the size beyond which objects are allocated
// directly in old space (they would not fit a survivor space anyway).
func (h *Heap) largeObjectWords() int { return h.cfg.SurvivorWords / 4 }

// reserve returns the address of a fresh block of total words, scavenging
// if eden is exhausted.
func (h *Heap) reserve(p *firefly.Proc, total int) uint64 {
	if total >= h.largeObjectWords() {
		return h.reserveOld(p, total)
	}
	if h.cfg.Policy == AllocPerProcessor {
		return h.reserveTLAB(p, total)
	}
	c := h.m.Costs()
	for attempt := 0; ; attempt++ {
		h.allocLock.Acquire(p)
		h.sanAccess(p, "eden")
		if h.eden.free() >= total {
			addr := h.eden.next
			h.eden.next += uint64(total)
			h.allocLock.Release(p)
			return addr
		}
		h.allocLock.Release(p)
		if attempt > 0 {
			// A scavenge just ran and eden still cannot hold the
			// request; treat it as a large object.
			return h.reserveOld(p, total)
		}
		p.Advance(c.Alloc)
		h.rec.Emit(trace.KEdenFull, p.ID(), int64(p.Now()), int64(total), 0, "")
		h.Scavenge(p)
	}
}

// reserveTLAB bumps the processor's local chunk, refilling from eden.
func (h *Heap) reserveTLAB(p *firefly.Proc, total int) uint64 {
	t := &h.tlabs[p.ID()]
	if t.fits(total) {
		return t.take(total)
	}
	c := h.m.Costs()
	chunk := h.cfg.EdenWords / (8 * len(h.tlabs))
	if chunk < total*2 {
		chunk = total * 2
	}
	chunk &^= 1 // chunks must keep object addresses even
	for attempt := 0; ; attempt++ {
		h.allocLock.Acquire(p)
		h.sanAccess(p, "eden")
		if h.eden.free() >= total {
			n := chunk
			if n > h.eden.free() {
				n = h.eden.free() &^ 1
			}
			*t = bump{next: h.eden.next, limit: h.eden.next + uint64(n)}
			h.eden.next = t.limit
			h.allocLock.Release(p)
			p.Advance(c.TLABRefill)
			h.allocShards[p.ID()].tlabRefills.Add(1)
			return t.take(total)
		}
		h.allocLock.Release(p)
		if attempt > 0 {
			return h.reserveOld(p, total)
		}
		h.rec.Emit(trace.KEdenFull, p.ID(), int64(p.Now()), int64(total), 0, "")
		h.Scavenge(p)
	}
}

// reserveOld allocates directly in old space (large objects) under the
// allocation lock.
func (h *Heap) reserveOld(p *firefly.Proc, total int) uint64 {
	h.allocLock.Acquire(p)
	defer h.allocLock.Release(p)
	h.sanAccess(p, "old-space")
	return h.takeOld(total)
}

// takeOld reserves total words of old space for reserveOld and
// AllocateNoGC, which serialize it: first-fit from the ConcMark sweep's
// free list, so reclaimed old space is reused without compaction, else
// the bump pointer; an exhausted old space panics with OOMError.
func (h *Heap) takeOld(total int) uint64 {
	if addr, ok := h.carveOldFree(total); ok {
		return addr
	}
	if h.old.free() < total {
		panic(OOMError{NeedWords: total})
	}
	addr := h.old.next
	h.old.next += uint64(total)
	return addr
}

// ResetTLABs invalidates every processor's local chunk (after a scavenge
// emptied eden).
func (h *Heap) resetTLABs() {
	clear(h.tlabs)
}
