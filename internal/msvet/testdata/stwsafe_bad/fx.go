// Package fixture injects three stwsafe violations: refill allocates
// and is statically reachable (through one call) from inside the
// stop-the-world window in Collect; Finalize allocates inside its own
// window; and Reset calls the //msvet:stw-entry function sweep with the
// world running.
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

// Finalize allocates inside a window opened by spinning on
// StopTheWorld, before the resume.
func (h *Heap) Finalize(p *Proc) {
	for !h.m.StopTheWorld(p) {
	}
	h.Allocate(p, 8)
	h.m.ResumeTheWorld(p)
}

// sweep assumes the window its caller holds.
//
//msvet:stw-entry called only with the world stopped
func (h *Heap) sweep(p *Proc) {
	h.next = 0
}

// Reset calls sweep without stopping the world.
func (h *Heap) Reset(p *Proc) {
	h.sweep(p)
}
