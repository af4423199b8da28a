// Package fixture is the clean twin of memalias_bad: object memory is
// aliased in one annotated constructor, and the store through the alias
// sits in an annotated funnel.
package fixture

import "sync/atomic"

type Heap struct {
	mem []uint64
}

// storeWord is the audited funnel every checked store goes through.
//
//msvet:heap-writer the single barrier exit point of this fixture
func (h *Heap) storeWord(i, v uint64) { atomic.StoreUint64(&h.mem[i], v) }

type View struct {
	w []uint64
}

// Bind is the one place object memory is aliased.
//
//msvet:heap-writer views are handed out only for objects whose stores need no check
//msvet:atomic-excluded views are handed out only on a single-threaded host
func (v *View) Bind(h *Heap, lo, hi uint64) {
	v.w = h.mem[lo:hi]
}

// Poke stores in place through the view.
//
//msvet:heap-writer the check was decided when the view was bound
//msvet:atomic-excluded a view exists only on a single-threaded host
func (v *View) Poke(i int, x uint64) {
	v.w[i] = x
}

// Len only measures the view: not an access to its words.
func (v *View) Len() int { return len(v.w) }
