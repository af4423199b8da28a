// Package fixture allocates with the world stopped after an early
// resume: Collect resumes and returns on its quick path, and allocates
// before resuming on the other. Ending the window at the first resume
// after the stop hid the allocation.
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

func (h *Heap) Collect(p *Proc, quick bool) {
	if !h.m.StopTheWorld(p) {
		return
	}
	if quick {
		h.m.ResumeTheWorld(p)
		return
	}
	h.Allocate(p, 8)
	h.m.ResumeTheWorld(p)
}
