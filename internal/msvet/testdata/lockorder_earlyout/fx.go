// Package fixture hides a static lock-order cycle behind an early out:
// Forward releases alpha and returns when busy, and takes beta under
// alpha only on the path that stays. Pairing each acquire with the
// first release after it ended alpha's hold at the early release, so
// the alpha -> beta edge, and the cycle with Backward, went unseen.
package fixture

type Proc struct{ id int }

type Machine struct{}

type Spinlock struct{ name string }

func NewSpinlock(name string, m *Machine) *Spinlock { return &Spinlock{name: name} }

func (l *Spinlock) Acquire(p *Proc) {}
func (l *Spinlock) Release(p *Proc) {}

type Sched struct {
	alpha *Spinlock
	beta  *Spinlock
}

func NewSched(m *Machine) *Sched {
	return &Sched{
		alpha: NewSpinlock("alpha", m),
		beta:  NewSpinlock("beta", m),
	}
}

// Forward acquires alpha, bails out early when busy, then takes beta.
func (s *Sched) Forward(p *Proc, busy bool) {
	s.alpha.Acquire(p)
	if busy {
		s.alpha.Release(p)
		return
	}
	s.beta.Acquire(p)
	s.beta.Release(p)
	s.alpha.Release(p)
}

// Backward acquires beta then alpha: with Forward, a deadlock.
func (s *Sched) Backward(p *Proc) {
	s.beta.Acquire(p)
	s.alpha.Acquire(p)
	s.alpha.Release(p)
	s.beta.Release(p)
}
