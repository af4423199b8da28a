// Package fixture is the clean twin of stwsafe_bad: the helper called
// from the window does not allocate, the one lock acquired inside the
// window carries a //msvet:stw-safe annotation, and Cycle allocates
// between two windows, in neither.
package fixture

type Proc struct{ id int }

type Machine struct{ stopped bool }

func (m *Machine) StopTheWorld(p *Proc) bool { m.stopped = true; return true }
func (m *Machine) ResumeTheWorld(p *Proc)    { m.stopped = false }

type Spinlock struct{ name string }

func NewSpinlock(name string, m *Machine) *Spinlock { return &Spinlock{name: name} }

func (l *Spinlock) Acquire(p *Proc) {}
func (l *Spinlock) Release(p *Proc) {}

type Heap struct {
	m    *Machine
	par  bool
	next uint64
	//msvet:stw-safe collector bookkeeping lock: taken only by the collector inside the window, never held by a parked mutator
	gcMu *Spinlock
}

func NewHeap(m *Machine) *Heap {
	h := &Heap{m: m}
	h.gcMu = NewSpinlock("gc", m)
	return h
}

func (h *Heap) Allocate(p *Proc, words uint64) uint64 {
	a := h.next
	h.next += words
	return a
}

// refill bumps the scan pointer without allocating.
func (h *Heap) refill(p *Proc) uint64 {
	h.next += 8
	return h.next
}

func (h *Heap) Collect(p *Proc) {
	if !h.m.StopTheWorld(p) {
		return
	}
	defer h.m.ResumeTheWorld(p)
	h.gcMu.Acquire(p)
	h.refill(p)
	h.gcMu.Release(p)
}

// finish runs only in Cycle's second window, which the spin on
// StopTheWorld opens.
func (h *Heap) finish(p *Proc) {
	h.next = 0
}

// Cycle is the concurrent collector's shape: a window opened and closed
// under h.par, an allocation between the windows, and a second window
// opened by spinning until StopTheWorld succeeds.
func (h *Heap) Cycle(p *Proc) {
	if h.par {
		if !h.m.StopTheWorld(p) {
			return
		}
	}
	h.refill(p)
	if h.par {
		h.m.ResumeTheWorld(p)
	}
	h.Allocate(p, 8)
	if h.par {
		for !h.m.StopTheWorld(p) {
		}
	}
	h.finish(p)
	if h.par {
		h.m.ResumeTheWorld(p)
	}
}
