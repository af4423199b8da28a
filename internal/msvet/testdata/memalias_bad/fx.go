// Package fixture injects the hole a register-window prototype walked
// through: Bind slices object memory into a struct field and Poke
// stores through that field. Neither touches `.mem[i]`, so before the
// alias rule barrierflow saw nothing and atomicguard saw only Bind.
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

// Bind aliases object memory with no annotation — injected violation.
func (v *View) Bind(h *Heap, lo, hi uint64) {
	v.w = h.mem[lo:hi]
}

// Poke stores through the alias with no annotation — injected violation.
func (v *View) Poke(i int, x uint64) {
	v.w[i] = x
}
