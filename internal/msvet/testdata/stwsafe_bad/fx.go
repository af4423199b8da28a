// Package fixture injects one stwsafe violation: refill allocates and
// is statically reachable (through one call) from inside the
// stop-the-world window in Collect.
package fixture

type Proc struct{ id int }

type Machine struct{ stopped bool }

func (m *Machine) StopTheWorld(p *Proc) bool { m.stopped = true; return true }
func (m *Machine) ResumeTheWorld(p *Proc)    { m.stopped = false }

type Heap struct {
	m    *Machine
	next uint64
}

func (h *Heap) Allocate(p *Proc, words uint64) uint64 {
	a := h.next
	h.next += words
	return a
}

// refill is only ever called from inside the window; the Allocate call
// below is the injected violation.
func (h *Heap) refill(p *Proc) uint64 {
	return h.Allocate(p, 8)
}

func (h *Heap) Collect(p *Proc) {
	if !h.m.StopTheWorld(p) {
		return
	}
	defer h.m.ResumeTheWorld(p)
	h.refill(p)
}

// Finalize allocates inside the concurrent collector's second window:
// the spin on StopTheWorld opens it under par, and the allocation comes
// before the resume under the same guard.
func (h *Heap) Finalize(p *Proc, par bool) {
	if par {
		for !h.m.StopTheWorld(p) {
		}
	}
	h.Allocate(p, 8)
	if par {
		h.m.ResumeTheWorld(p)
	}
}
