// Parallel host mode: the virtual processors run concurrently on real
// goroutines instead of under the deterministic baton protocol.
//
// The machine still boots deterministically (image construction is a
// single-threaded program), then flips once, between Runs, with
// SetParallel(true). From the first parallel Run on, every live
// processor goroutine runs freely; virtual time is still charged per
// processor through the same cost model, but the interleaving is
// whatever the host scheduler produces, so virtual clocks are no
// longer reproducible run to run. What is preserved — and what the
// parallel stress tests check — are the workload's own invariants:
// the work gets done, the heap stays consistent, and the Table 3
// concurrency disciplines hold under the Go race detector.
//
// Coordination points:
//
//   - parYield is the parallel safepoint, reached from the same
//     Yield/CheckYield sites as the baton scheduler. The fast path is
//     one atomic flag load; the slow path (parSlow) parks the
//     processor under parMu for a stop request, a stop-the-world
//     rendezvous, or shutdown.
//   - Run(until) wakes the processors, then sleeps on parCond until
//     some processor's safepoint sees the predicate become true (or
//     the time limit pass) and every other processor has parked.
//   - StopTheWorld/ResumeTheWorld implement the paper's serialized-GC
//     strategy for real: the scavenging processor sets parFlag and
//     waits until every other live processor is parked at a
//     safepoint, runs alone, then releases the world. Waking
//     processors account the pause against their own clocks as stall
//     time, mirroring what StallOthers does in the baton mode.
package firefly

import (
	"runtime"
	"sync"

	"mst/internal/trace"
)

// SetParallel flips the machine into parallel host mode. It must be
// called between Runs (every processor parked); the flip is one-way.
// The deterministic baton mode stays the default for machines that
// never call this.
func (m *Machine) SetParallel(on bool) {
	if !on || m.parallel {
		return
	}
	if m.running {
		panic("firefly: SetParallel while the machine is running")
	}
	if m.shutdown.Load() {
		panic("firefly: SetParallel on a shut-down machine")
	}
	m.parCond = sync.NewCond(&m.parMu)
	m.parallel = true
}

// Parallel reports whether the machine is in parallel host mode.
func (m *Machine) Parallel() bool { return m.parallel }

// parLive counts started, not-done processors. Callers hold parMu.
func (m *Machine) parLive() int {
	n := 0
	for _, p := range m.procs {
		if p.started && !p.done {
			n++
		}
	}
	return n
}

// parStop requests that the current parallel Run stop for reason. The
// first request wins; every processor will park at its next safepoint.
func (m *Machine) parStop(reason StopReason) {
	m.parMu.Lock()
	if !m.stopPending {
		m.stopPending = true
		m.stopReason = reason
		m.parFlag.Store(true)
		m.parCond.Broadcast()
	}
	m.parMu.Unlock()
}

// parYield is the parallel-mode body of Proc.Yield: start a fresh
// quantum, evaluate the run's stop conditions, and divert into the
// slow path when anything needs a rendezvous. The quantum here is
// per-processor wall-clock-free bookkeeping — it only bounds how much
// virtual time passes between safepoint checks.
func (p *Proc) parYield() {
	m := p.m
	m.rec.Emit(trace.KQuantumEnd, p.id, int64(p.clock), 0, 0, "")
	p.yieldAt = p.clock + m.quantum
	if u := m.until; u != nil && u() {
		m.parStop(StopUntil)
	} else if p.clock > m.limit {
		m.parStop(StopTimeLimit)
	}
	if m.parFlag.Load() {
		m.parSlow(p)
	}
	if m.concMarkOn.Load() {
		if f := m.concAssist; f != nil {
			f(p)
		}
	}
	m.rec.Emit(trace.KQuantumStart, p.id, int64(p.clock), 0, 0, "")
}

// parSlow handles everything the safepoint fast path diverted: park
// for a stop-the-world pause, park for the end of the current Run, or
// fall through on shutdown (the work function will observe Stopped and
// return). A processor parked for the Run's end stays parked until the
// next Run bumps runGen.
func (m *Machine) parSlow(p *Proc) {
	m.parMu.Lock()
	for {
		if m.shutdownPar {
			break
		}
		if owner := m.stwOwner; owner != nil && owner != p {
			gen := m.gcGen
			m.parkedSTW++
			m.parCond.Broadcast()
			for m.stwOwner != nil && m.gcGen == gen && !m.shutdownPar {
				if m.parAssist(p) {
					continue
				}
				m.parCond.Wait()
			}
			m.parkedSTW--
			// The world ran again at stwEnd; the pause was a real GC
			// stall, accounted on this processor's own clock.
			if m.stwEnd > p.clock {
				p.stall += m.stwEnd - p.clock
				p.clock = m.stwEnd
			}
			continue
		}
		if m.stopPending {
			gen := m.runGen
			m.parkedStop++
			m.parCond.Broadcast()
			for m.runGen == gen && !m.shutdownPar {
				if m.parAssist(p) {
					continue
				}
				m.parCond.Wait()
			}
			m.parkedStop--
			continue
		}
		break
	}
	m.parMu.Unlock()
}

// runParallel is Run's parallel-mode body: wake every processor, wait
// for a stop condition to park them all, report why.
func (m *Machine) runParallel(until func() bool) StopReason {
	if until != nil && until() {
		return StopUntil
	}
	m.parMu.Lock()
	m.until = until
	m.stopPending = false
	m.stopReason = StopUntil
	m.shutdownParCheck()
	m.runGen++
	m.recomputeParFlag()
	m.parCond.Broadcast()
	first := !m.parReleased
	m.parReleased = true
	m.parMu.Unlock()

	if first {
		// Every processor goroutine is still parked on its baton
		// channel (boot ran under the deterministic driver). Release
		// them into free running; from here on they only ever park on
		// parCond.
		for _, p := range m.procs {
			if p.started && !p.done {
				p.resume <- struct{}{}
			}
		}
	}

	m.parMu.Lock()
	for {
		live := m.parLive()
		if live == 0 {
			m.stopPending = true
			m.stopReason = StopAllDone
			break
		}
		if m.stopPending && m.stwOwner == nil && m.parkedStop == live {
			break
		}
		m.parCond.Wait()
	}
	reason := m.stopReason
	m.until = nil
	m.parMu.Unlock()
	return reason
}

// recomputeParFlag derives the safepoint flag from the slow-path
// conditions. Callers hold parMu.
func (m *Machine) recomputeParFlag() {
	m.parFlag.Store(m.stopPending || m.stwOwner != nil || m.shutdownPar)
}

func (m *Machine) shutdownParCheck() {
	if m.shutdownPar {
		panic("firefly: Run after Shutdown")
	}
}

// StopTheWorld brings every other live processor to a safepoint and
// parks it there; on return the calling processor runs alone. It
// reports false when another processor's collection ran while the
// caller was waiting its turn — the caller should then skip its own
// collection and re-examine the heap. In deterministic baton mode the
// world is always stopped by construction and the call is a no-op
// returning true.
func (m *Machine) StopTheWorld(p *Proc) bool {
	if !m.parallel {
		return true
	}
	m.parMu.Lock()
	if m.stwOwner == p {
		// Nested stop by the owner (a full collection scavenges first):
		// the world is already stopped.
		m.stwDepth++
		m.parMu.Unlock()
		return true
	}
	for m.stwOwner != nil {
		gen := m.gcGen
		m.parkedSTW++
		m.parCond.Broadcast()
		for m.stwOwner != nil && m.gcGen == gen && !m.shutdownPar {
			if m.parAssist(p) {
				continue
			}
			m.parCond.Wait()
		}
		m.parkedSTW--
		if m.stwEnd > p.clock {
			p.stall += m.stwEnd - p.clock
			p.clock = m.stwEnd
		}
		if m.gcGen != gen || m.shutdownPar {
			m.parCond.Broadcast()
			m.parMu.Unlock()
			return false
		}
	}
	m.stwOwner = p
	m.parFlag.Store(true)
	for m.parkedStop+m.parkedSTW < m.parLive()-1 && !m.shutdownPar {
		m.parCond.Wait()
	}
	m.parMu.Unlock()
	return true
}

// ResumeTheWorld releases the processors parked by StopTheWorld. The
// caller's current virtual time is published as the pause's end; each
// waking processor advances its own clock to it as stall time.
func (m *Machine) ResumeTheWorld(p *Proc) {
	if !m.parallel {
		return
	}
	m.parMu.Lock()
	if m.stwOwner != p {
		panic("firefly: ResumeTheWorld by a processor that did not stop it")
	}
	if m.stwDepth > 0 {
		m.stwDepth--
		m.parMu.Unlock()
		return
	}
	m.stwOwner = nil
	m.gcGen++
	if p.clock > m.stwEnd {
		m.stwEnd = p.clock
	}
	m.recomputeParFlag()
	m.parCond.Broadcast()
	m.parMu.Unlock()
}

// parAssist lets a processor parked at a rendezvous join the
// stop-the-world owner's published worker function (RunStopped) instead
// of idling through the pause. Called with parMu held from the park
// loops; returns true after running the function (the caller re-checks
// its wait condition). Each processor joins a given assist generation
// at most once.
func (m *Machine) parAssist(p *Proc) bool {
	fn := m.gcAssist
	if fn == nil || m.gcAssistSeen[p.id] == m.gcAssistGen {
		return false
	}
	m.gcAssistSeen[p.id] = m.gcAssistGen
	m.gcAssistRunning++
	m.parMu.Unlock()
	fn(p)
	m.parMu.Lock()
	m.gcAssistRunning--
	m.parCond.Broadcast()
	return true
}

// RunStopped runs fn on the stop-the-world owner p and, in parallel
// host mode, publishes it to every processor parked at the rendezvous:
// each parked processor runs fn(q) on its own goroutine exactly once,
// concurrently with the owner. RunStopped returns only after the owner
// and every joined helper have finished, so callers may rely on fn's
// effects being complete and on running alone again. Correctness must
// never depend on helpers joining: a processor that reaches its park
// loop late (or not at all, in deterministic mode) simply never runs
// fn, and the owner's own invocation must be able to finish the whole
// job. In deterministic baton mode the world is stopped by
// construction and RunStopped is just fn(p).
func (m *Machine) RunStopped(p *Proc, fn func(q *Proc)) {
	if !m.parallel {
		fn(p)
		return
	}
	m.parMu.Lock()
	if m.stwOwner != p {
		m.parMu.Unlock()
		panic("firefly: RunStopped without owning the stopped world")
	}
	m.gcAssist = fn
	m.gcAssistGen++
	m.parCond.Broadcast()
	m.parMu.Unlock()

	fn(p)

	m.parMu.Lock()
	m.gcAssist = nil
	for m.gcAssistRunning > 0 {
		m.parCond.Wait()
	}
	m.parMu.Unlock()
}

// shutdownParallel implements Shutdown for a machine in parallel mode:
// set the flags every loop polls, wake all parked processors, and wait
// for every work function to return.
func (m *Machine) shutdownParallel() {
	m.parMu.Lock()
	m.shutdownPar = true
	m.parFlag.Store(true)
	m.parCond.Broadcast()
	released := m.parReleased
	m.parReleased = true
	m.parMu.Unlock()

	if !released {
		// Shutdown before the first parallel Run: the goroutines are
		// still baton-parked.
		for _, p := range m.procs {
			if p.started && !p.done {
				p.resume <- struct{}{}
			}
		}
	}

	m.parMu.Lock()
	for m.parLive() > 0 {
		m.parCond.Wait()
	}
	m.parMu.Unlock()
}

// parBackoff spins briefly at the host level between lock retries,
// yielding the OS thread so single-core hosts make progress. The
// returned next backoff doubles up to a cap.
func parBackoff(n int) int {
	for i := 0; i < n; i++ {
		// busy wait
	}
	runtime.Gosched()
	if n < 1<<12 {
		return n << 1
	}
	return n
}
