// Package fixture breaks //msvet:defined-once three ways: a second
// caller hidden in a closure, a second carrier for one callee, and a
// carrier that no longer calls its callee.
package fixture

type Proc struct{}

type Spinlock struct{}

func (l *Spinlock) TryAcquire(p *Proc) bool { return true }
func (l *Spinlock) Release(p *Proc)         {}

type Sched struct{ lock *Spinlock }

// poll is the one idle poll.
//
//msvet:defined-once fixture.(*Spinlock).TryAcquire the one idle poll
func (s *Sched) poll(p *Proc) {
	if s.lock.TryAcquire(p) {
		s.lock.Release(p)
	}
}

// Skip hides a second poll in a closure.
func (s *Sched) Skip(p *Proc) func() {
	return func() {
		if s.lock.TryAcquire(p) {
			s.lock.Release(p)
		}
	}
}

func step() {}

//msvet:defined-once fixture.step the first carrier
func first() { step() }

//msvet:defined-once fixture.step a second carrier for the same callee
func second() { step() }

func drain() {}

//msvet:defined-once fixture.drain this carrier no longer drains
func Flush() {}
