package heap

import (
	"fmt"

	"mst/internal/firefly"
	"mst/internal/object"
)

// verifyWriteBarrier is mscheck's write-barrier engine: an independent,
// read-only rescan of old space (plus the immortal area) run at the end
// of every scavenge when a sanitizer is attached. A scavenge has just
// reset eden and the previous survivor semispace, so the entry table is
// exactly the set of old objects that reference new space; any old→new
// pointer in an object outside the table means a store bypassed the
// store check, and any pointer into a reclaimed region is the dangling
// reference such a bypass leaves behind once the target is collected or
// moved. Violations go to the checker; nothing in the heap is written.
//
// This file is intentionally read-only (it never assigns to h.mem, and
// only reads the views refWords hands it); msvet's barrierflow analyzer
// keeps it that way with a per-file rule: any raw store in verify.go is
// a finding, annotation or stop-the-world cover notwithstanding.
//
// The early return is a work gate (it skips the whole rescan), not a
// safety test: the checker's Report hooks accept a nil receiver.
func (h *Heap) verifyWriteBarrier(p *firefly.Proc) {
	san := h.san
	if san == nil {
		return
	}

	// Live new space right after a scavenge: the (new) past survivor
	// space up to its allocation frontier. Eden and the other semispace
	// were just reclaimed. The parallel scavenger copies through
	// per-worker buffers, so the space is not one contiguous prefix of
	// survivors: retired buffers leave filler-capped gaps, and a bare
	// range check would bless a pointer into a gap (or into the middle
	// of an object). Walk the space once and admit only the start
	// addresses of real (non-filler) objects.
	live := h.surv[h.past]
	starts := make(map[uint64]bool)
	for a := live.base; a < live.next; {
		hd := object.Header(h.mem[a])
		size := hd.SizeWords()
		if size < object.HeaderWords {
			break // corrupt header; CheckInvariants reports the details
		}
		if !h.isFiller(a) {
			starts[a] = true
		}
		a += uint64(size)
	}
	liveNew := func(a uint64) bool { return starts[a] }

	inTable := make(map[object.OOP]bool, len(h.remembered))
	for _, o := range h.remembered {
		inTable[o] = true
	}

	at := int64(p.Now())
	words := h.old.next - h.old.base

	// checkField takes the word's index in refWords: 0 is the class word,
	// i > 0 is field i-1.
	checkField := func(o object.OOP, i int, v object.OOP) bool {
		if !v.IsPtr() || v == object.Invalid || v.Addr() < h.newBase {
			return false
		}
		if !liveNew(v.Addr()) {
			what := "class word"
			if i > 0 {
				what = fmt.Sprintf("field %d", i-1)
			}
			san.ReportWriteBarrier(p.ID(), at, fmt.Sprintf(
				"old object %#x %s points into reclaimed new space (%#x): a store bypassed the store check",
				o.Addr(), what, v.Addr()))
			return false
		}
		return true
	}

	scan := func(o object.OOP) {
		hd := object.Header(h.mem[o.Addr()])
		refsNew := false
		for i, w := range h.refWords(o.Addr()) {
			if checkField(o, i, object.OOP(w)) {
				refsNew = true
			}
		}
		if refsNew && !inTable[o] {
			san.ReportWriteBarrier(p.ID(), at, fmt.Sprintf(
				"old object %#x references new space but is not in the entry table: a store bypassed the store check",
				o.Addr()))
		}
		if !refsNew && inTable[o] {
			san.ReportWriteBarrier(p.ID(), at, fmt.Sprintf(
				"entry table retains old object %#x which no longer references new space",
				o.Addr()))
		}
		if inTable[o] != hd.Remembered() {
			san.ReportWriteBarrier(p.ID(), at, fmt.Sprintf(
				"old object %#x: remembered header bit (%v) disagrees with entry-table membership (%v)",
				o.Addr(), hd.Remembered(), inTable[o]))
		}
	}

	for _, fixed := range []object.OOP{object.Nil, object.True, object.False} {
		scan(fixed)
		words += uint64(object.Header(h.mem[fixed.Addr()]).SizeWords())
	}
	// Between a concurrent mark's finalize window and the end of its
	// lazy sweep, old space still holds dead objects whose entry-table
	// pruning already happened; their stale young references are about
	// to be overwritten with fillers, not fixed. Skip unmarked objects
	// in that interim — the next scavenge after the sweep verifies the
	// full space again.
	sweepPending := h.cm != nil && h.cm.sweepPending.Load()
	a := h.old.base
	for a < h.old.next {
		o := object.FromAddr(a)
		if !sweepPending || object.Header(h.mem[a]).Marked() {
			scan(o)
		}
		a += uint64(object.Header(h.mem[a]).SizeWords())
	}
	san.NoteBarrierScan(words)
}

// verifyTriColor is the concurrent marker's finalize-window check: a
// read-only traversal from the registered roots (through young objects
// — young space is not traced by the marker, but its referents were
// shaded at the snapshot) asserting that every reachable old-space
// object is marked. A white reachable object here means a deletion
// barrier was skipped or a shade was lost, and the sweep would turn a
// live object into a dangling reference. Violations go to the checker;
// nothing in the heap is written.
func (h *Heap) verifyTriColor(p *firefly.Proc) {
	san := h.san
	if san == nil {
		return
	}
	at := int64(p.Now())
	seen := make(map[uint64]bool)
	var stack []uint64
	visit := func(o object.OOP) {
		if !o.IsPtr() || o == object.Invalid {
			return
		}
		a := o.Addr()
		if a < h.old.base {
			return // the immortals are never collected
		}
		if seen[a] {
			return
		}
		seen[a] = true
		if a < h.newBase && !object.Header(h.mem[a]).Marked() {
			san.ReportConcMark(p.ID(), at, fmt.Sprintf(
				"tri-color invariant broken: old object %#x is reachable but unmarked at finalize",
				a))
		}
		stack = append(stack, a)
	}
	h.visitAllRoots(func(slot *object.OOP) { visit(*slot) })
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range h.refWords(a) {
			visit(object.OOP(w))
		}
	}
}
