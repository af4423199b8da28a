package firefly

import (
	"fmt"
	"sync/atomic"

	"mst/internal/trace"
)

// Spinlock is a virtual spinlock in the style of the V system locks used
// by MS: an interlocked test-and-set, and on failure a minimal-timeout
// Delay before retrying.
//
// The simulation exploits a structural property of MS's locks: every
// critical section is *brief and host-atomic* — it performs no operation
// that could hand control to another virtual processor (the paper's
// criterion for choosing serialization: "access is brief and relatively
// infrequent"). The lock therefore never needs to block at the host
// level; it is a virtual-time reservation. Acquire at clock t on a lock
// last free at time f charges test-and-set time, and when t < f — the
// lock was held during [t, f) by a processor that is ahead in virtual
// time — the acquirer spins in Delay-retry quanta until f. Contention,
// spin time, and serialization delays are thus fully modelled in virtual
// time while the host execution stays simple and deterministic, and
// acquiring a lock is never a garbage-collection point.
//
// The held flag exists only to enforce the host-atomicity invariant: a
// critical section that yields (or scavenges, which stalls the other
// processors but leaves the holder marked) would be a simulator bug and
// panics.
//
// A disabled lock (baseline-BS mode, with multiprocessor support
// compiled out) costs nothing and keeps no state.
// In parallel host mode the virtual-time reservation no longer works
// (there is no global ordering of clocks to reserve against), so the
// lock becomes what it models: an interlocked test-and-set word
// (state; 0 free, holder id + 1 otherwise) acquired with CAS and
// host-level exponential backoff. The same cost model still charges
// the test-and-set and each spin retry to the acquirer's own virtual
// clock, so contention remains visible in the virtual statistics.
type Spinlock struct {
	name    string
	enabled bool
	m       *Machine
	held    bool
	holder  int
	freeAt  Time // virtual time of the most recent release

	// state is the parallel-mode lock word: 0 free, holder id + 1.
	state atomic.Int32

	acquisitions atomic.Uint64
	contentions  atomic.Uint64
	spinTime     atomic.Int64 // ticks

	// waitHist, when the latency registry is attached, receives every
	// acquire's virtual wait (spin ticks; 0 when uncontended). Pure
	// observation: recording never charges virtual time.
	waitHist *trace.Histogram
}

// NewSpinlock registers a named spinlock with the machine (for
// statistics) and returns it. When enabled is false the lock is a free
// no-op, modelling the baseline system.
func (m *Machine) NewSpinlock(name string, enabled bool) *Spinlock {
	l := &Spinlock{name: name, enabled: enabled, m: m}
	m.locks = append(m.locks, l)
	m.san.RegisterLock(name, enabled)
	if enabled {
		l.waitHist = m.lat.LockHist(name)
	}
	return l
}

// spinUntil charges the deterministic mode's virtual spin: an acquirer
// that finds the lock reserved until horizon — held during
// [p.clock, horizon) by a processor ahead in virtual time — spins in
// whole test-and-set + Delay rounds. It returns the ticks spun, 0 when
// the lock is already free.
func (l *Spinlock) spinUntil(p *Proc, horizon Time) Time {
	if p.clock >= horizon {
		return 0
	}
	l.contentions.Add(1)
	retry := p.m.costs.LockSpinRetry
	spin := (horizon - p.clock + retry - 1) / retry * retry
	p.m.rec.Emit(trace.KLockContend, p.id, int64(p.clock), int64(spin), 0, l.name)
	p.AdvanceSpin(spin)
	l.spinTime.Add(int64(spin))
	return spin
}

// spinPar is the parallel-host-mode acquire loop: a real
// compare-and-swap (try) retried with exponential host backoff.
// Virtual time is charged exactly as the model prescribes — one
// LockSpinRetry round per failed retry. It returns the ticks spun.
func (l *Spinlock) spinPar(p *Proc, try func() bool) Time {
	if try() {
		return 0
	}
	l.contentions.Add(1)
	retry := p.m.costs.LockSpinRetry
	var spin Time
	backoff := 1
	for {
		backoff = parBackoff(backoff)
		p.AdvanceSpin(retry)
		spin += retry
		if try() {
			break
		}
	}
	l.spinTime.Add(int64(spin))
	p.m.rec.Emit(trace.KLockContend, p.id, int64(p.clock), int64(spin), 0, l.name)
	return spin
}

// acquired is the epilogue of every successful acquire: count it, feed
// the virtual wait (spin ticks; 0 when uncontended) to the lock's
// latency histogram, and tell the recorder and the sanitizer.
// exclusive is 1 for a Spinlock or a write acquire, 0 for a read.
func (l *Spinlock) acquired(p *Proc, spin Time, exclusive int64) {
	l.acquisitions.Add(1)
	l.waitHist.Record(int64(spin))
	p.m.rec.Emit(trace.KLockAcquire, p.id, int64(p.clock), 0, exclusive, l.name)
	p.m.san.OnAcquire(p.id, int64(p.clock), l.name)
}

// released is the epilogue of every release.
func (l *Spinlock) released(p *Proc, exclusive int64) {
	p.m.rec.Emit(trace.KLockRelease, p.id, int64(p.clock), 0, exclusive, l.name)
	p.m.san.OnRelease(p.id, l.name)
}

// Acquire takes the lock at the processor's current virtual time,
// spinning (in virtual time only) while the lock was held.
func (l *Spinlock) Acquire(p *Proc) {
	if !l.enabled {
		return
	}
	p.Advance(p.m.costs.LockTAS)
	if l.m.parallel {
		me := int32(p.id) + 1
		l.acquired(p, l.spinPar(p, func() bool {
			return l.state.Load() == 0 && l.state.CompareAndSwap(0, me)
		}), 1)
		return
	}
	if l.held {
		panic(fmt.Sprintf("firefly: processor %d acquired lock %q while processor %d is inside the critical section (a critical section must not yield)",
			p.id, l.name, l.holder))
	}
	spin := l.spinUntil(p, l.freeAt)
	l.held = true
	l.holder = p.id
	l.acquired(p, spin, 1)
}

// TryAcquire takes the lock if it is free at the processor's current
// virtual time, charging only test-and-set time. It reports whether the
// lock was acquired.
func (l *Spinlock) TryAcquire(p *Proc) bool {
	if !l.enabled {
		return true
	}
	p.Advance(p.m.costs.LockTAS)
	var ok bool
	if l.m.parallel {
		ok = l.state.CompareAndSwap(0, int32(p.id)+1)
	} else {
		if l.held {
			panic(fmt.Sprintf("firefly: processor %d probed lock %q inside processor %d's critical section",
				p.id, l.name, l.holder))
		}
		if ok = p.clock >= l.freeAt; ok {
			l.held = true
			l.holder = p.id
		}
	}
	if !ok {
		l.contentions.Add(1)
		p.m.rec.Emit(trace.KLockContend, p.id, int64(p.clock), 0, 0, l.name)
		return false
	}
	l.acquired(p, 0, 1)
	return true
}

// Release frees the lock; the critical section's virtual duration is the
// holder's clock advance between Acquire and Release.
func (l *Spinlock) Release(p *Proc) {
	if !l.enabled {
		return
	}
	if l.m.parallel {
		if l.state.Load() != int32(p.id)+1 {
			panic(fmt.Sprintf("firefly: processor %d releasing lock %q it does not hold", p.id, l.name))
		}
		p.Advance(p.m.costs.LockRelease)
		l.state.Store(0)
	} else {
		if !l.held || l.holder != p.id {
			panic(fmt.Sprintf("firefly: processor %d releasing lock %q it does not hold", p.id, l.name))
		}
		l.held = false
		p.Advance(p.m.costs.LockRelease)
		l.freeAt = p.clock
	}
	l.released(p, 1)
}

// Held reports whether the lock is currently held (always false when
// disabled, and false between host operations by construction in the
// deterministic mode).
func (l *Spinlock) Held() bool {
	if l.m != nil && l.m.parallel {
		return l.state.Load() != 0
	}
	return l.held
}

// Name returns the lock's registration name.
func (l *Spinlock) Name() string { return l.name }

// RWSpinlock is a virtual two-level (readers-writer) lock, the scheme
// MS first used for its shared method cache ("a two-level locking
// scheme to allow multiple readers"). Readers overlap freely; a writer
// waits for every outstanding read and excludes everything until it
// releases. Like Spinlock it is a virtual-time reservation: critical
// sections are host-atomic and only the timing is modelled.
// In parallel host mode the lock is a real reader-count word (rw: -1
// writer, otherwise the number of readers inside), CAS-acquired with
// host backoff like Spinlock.
type RWSpinlock struct {
	inner *Spinlock // carries name/enabled/stats; its freeAt is the write horizon
	// readsEnd is the virtual time the last overlapping read finishes.
	readsEnd Time

	rw atomic.Int32
}

// NewRWSpinlock registers a named readers-writer lock.
func (m *Machine) NewRWSpinlock(name string, enabled bool) *RWSpinlock {
	return &RWSpinlock{inner: m.NewSpinlock(name, enabled)}
}

// AcquireRead enters a read-side critical section at the processor's
// virtual time: it waits only for a pending writer, never for other
// readers.
func (l *RWSpinlock) AcquireRead(p *Proc) {
	in := l.inner
	if !in.enabled {
		return
	}
	p.Advance(p.m.costs.LockTAS)
	if in.m.parallel {
		in.acquired(p, in.spinPar(p, func() bool {
			v := l.rw.Load()
			return v >= 0 && l.rw.CompareAndSwap(v, v+1)
		}), 0)
		return
	}
	in.acquired(p, in.spinUntil(p, in.freeAt), 0) // a writer holds the lock until freeAt
}

// ReleaseRead leaves the read-side section, extending the read horizon
// a writer must wait for.
func (l *RWSpinlock) ReleaseRead(p *Proc) {
	if !l.inner.enabled {
		return
	}
	p.Advance(p.m.costs.LockRelease)
	if l.inner.m.parallel {
		if l.rw.Add(-1) < 0 {
			panic(fmt.Sprintf("firefly: processor %d read-releasing lock %q it does not read-hold", p.id, l.inner.name))
		}
	} else if p.clock > l.readsEnd {
		l.readsEnd = p.clock
	}
	l.inner.released(p, 0)
}

// AcquireWrite enters the exclusive section: it waits for the previous
// writer and for every outstanding reader.
func (l *RWSpinlock) AcquireWrite(p *Proc) {
	in := l.inner
	if !in.enabled {
		return
	}
	p.Advance(p.m.costs.LockTAS)
	if in.m.parallel {
		in.acquired(p, in.spinPar(p, func() bool { return l.rw.CompareAndSwap(0, -1) }), 1)
		return
	}
	in.acquired(p, in.spinUntil(p, max(in.freeAt, l.readsEnd)), 1)
}

// ReleaseWrite leaves the exclusive section.
func (l *RWSpinlock) ReleaseWrite(p *Proc) {
	if !l.inner.enabled {
		return
	}
	p.Advance(p.m.costs.LockRelease)
	if l.inner.m.parallel {
		if !l.rw.CompareAndSwap(-1, 0) {
			panic(fmt.Sprintf("firefly: processor %d write-releasing lock %q it does not write-hold", p.id, l.inner.name))
		}
	} else {
		l.inner.freeAt = p.clock
	}
	l.inner.released(p, 1)
}
