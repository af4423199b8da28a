package heap

import (
	"mst/internal/firefly"
	"mst/internal/object"
)

// Frame is a register window: a direct view of a run of one object's
// pointer fields, for an owner that touches them on every bytecode (an
// interpreter and its active context). It is the third place the host
// mode forks, beside loadWord and storeWord, and the only one decided
// once per binding instead of once per word: Bind hands out the views
// only where plain access is what the accessors would have done anyway,
// and every method falls through to the accessor it replaces (Fetch,
// Store, StoreNoCheck — still the one definition of a barriered store)
// for a slot its view does not cover.
//
// A Frame is a view, not a copy: a store through it is a store into
// object memory, seen at once by the scavenger, the verifier, the
// snapshot writer and anyone holding the object's oop. The one rule is
// validity — rebind after anything that can move or tenure the object
// (a scavenge or a full collection; nothing else does).
type Frame struct {
	h   *Heap
	o   object.OOP
	off int // field index of slot 0
	// plain views the slots where Fetch and StoreNoCheck are a plain load
	// and store: deterministic host, no marker. young views them where
	// Store is too: plain, and o is in new space.
	plain, young []uint64
}

// Bind points f at pointer fields [first, first+n) of o, in place (the
// interpreter rebinds on every context switch). Both views stay empty —
// every access takes the accessors — on a Parallel heap (words are
// host-atomic) and on a ConcMark heap (the deletion barrier must see
// every overwritten slot); both are fixed at New. An old-space object
// gets no young view: its stores need the store check.
//
//msvet:heap-writer the one place object memory is aliased, and only on a det host with no marker: storeWord is plain there and the deletion barrier inactive; the store check is decided per view (young) or per value (Poke)
//msvet:atomic-excluded views are handed out only when !h.par, where loadWord/storeWord are plain too
func (f *Frame) Bind(h *Heap, o object.OOP, first, n int) {
	f.h, f.o, f.off = h, o, first
	if h.par || h.cm != nil {
		f.plain, f.young = nil, nil
		return
	}
	a := o.Addr() + object.HeaderWords + uint64(first)
	e := a + uint64(n)
	f.plain = h.mem[a:e:e]
	if a < h.newBase {
		e = a
	}
	f.young = h.mem[a:e:e]
}

// Get returns slot i.
//
//msvet:atomic-excluded a view exists only on a det host
func (f *Frame) Get(i int) object.OOP {
	if uint(i) < uint(len(f.plain)) {
		return object.OOP(f.plain[i])
	}
	return f.h.Fetch(f.o, f.off+i)
}

// Set stores v into slot i with Store's check. Inline, that check is the
// young view's bounds test — the store check's first early return (the
// object is in new space), decided at bind time; store tries the second.
//
//msvet:heap-writer young object, det host, no marker: the store check's early return and the inactive barrier, decided at bind time
//msvet:atomic-excluded a view exists only on a det host
func (f *Frame) Set(p *firefly.Proc, i int, v object.OOP) {
	if uint(i) < uint(len(f.young)) {
		f.young[i] = uint64(v)
	} else {
		f.store(p, i, v)
	}
}

// Put stores v into slot i under StoreNoCheck's contract.
//
//msvet:heap-writer det host, no marker: StoreNoCheck is a plain store there
//msvet:atomic-excluded a view exists only on a det host
func (f *Frame) Put(i int, v object.OOP) {
	if uint(i) < uint(len(f.plain)) {
		f.plain[i] = uint64(v)
	} else {
		f.storeNoCheck(i, v)
	}
}

// Poke stores v into slot i if Store would have been a plain store —
// either of the store check's early returns: the object is young, or v
// is no new-space reference — and reports whether it did; otherwise
// nothing is stored. It never stores past the frame, so a caller that
// must bound i by the frame (a push) needs no test of its own.
//
//msvet:heap-writer det host, no marker, and the store check's own two early returns
//msvet:atomic-excluded a view exists only on a det host
func (f *Frame) Poke(i int, v object.OOP) bool {
	if uint(i) < uint(len(f.young)) || uint(i) < uint(len(f.plain)) && !f.h.InNewSpace(v) {
		f.plain[i] = uint64(v)
		return true
	}
	return false
}

// store is Set for a slot the young view does not cover.
func (f *Frame) store(p *firefly.Proc, i int, v object.OOP) {
	if !f.Poke(i, v) {
		f.h.Store(p, f.o, f.off+i, v)
	}
}

// storeNoCheck stays out of line so that Put inlines: a call is most of
// the inliner's budget, and an inlined wrapper of one is a second call.
//
//go:noinline
func (f *Frame) storeNoCheck(i int, v object.OOP) { f.h.StoreNoCheck(f.o, f.off+i, v) }

// Clear nils slots [lo, hi), lowest first.
//
//msvet:heap-writer as Put
//msvet:atomic-excluded as Put
func (f *Frame) Clear(lo, hi int) {
	if lo < hi && uint(hi) <= uint(len(f.plain)) {
		s := f.plain[lo:hi]
		for i := range s {
			s[i] = uint64(object.Nil)
		}
		return
	}
	for i := lo; i < hi; i++ {
		f.storeNoCheck(i, object.Nil)
	}
}

// Unchecked reports whether no Set can record an entry whatever it
// stores: the object is young, or already in the entry table.
func (f *Frame) Unchecked() bool {
	return len(f.young) > 0 || f.h.InNewSpace(f.o) || f.h.Header(f.o).Remembered()
}
