// Parallel host mode: the virtual processors run concurrently on real
// goroutines instead of one at a time under the deterministic driver.
//
// The machine still boots deterministically (image construction is a
// single-threaded program), then flips once, between Runs, with
// SetParallel(true). The first parallel Run resumes every live
// coroutine under a host goroutine of its own, and from then on none of
// them switches again: they run freely; virtual time is still charged per
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
//     Yield/CheckYield sites as the deterministic scheduler. The fast
//     path is one atomic flag load; the slow path takes parMu and calls
//     parPark, the one place a processor ever parks: through every
//     stop-the-world window another processor owns, and through the end
//     of a stopped Run.
//   - Run(until) wakes the processors, then sleeps on parCond until
//     some processor's safepoint sees the predicate become true (or
//     the time limit pass) and every other processor has parked.
//   - StopTheWorld/ResumeTheWorld implement the paper's serialized-GC
//     strategy for real: the collecting processor sets parFlag and
//     waits until every other live processor is parked at a
//     safepoint, runs alone, then releases the world. Every collection
//     enters its window this way in both modes (the deterministic arm
//     returns at once), windows do not nest, and the owner books the
//     pause on the parked processors' clocks with StallOthers, the one
//     stall ledger. The handover rule: a processor that wakes from one
//     window re-examines stwOwner before it runs any code of its own,
//     because a third processor may already own the next window and
//     have counted the sleeper as parked.
package firefly

import (
	"runtime"

	"mst/internal/trace"
)

// SetParallel flips the machine into parallel host mode. It must be
// called between Runs (every coroutine suspended); the flip is one-way.
// The deterministic mode stays the default for machines that never
// call this.
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
	m.parallel = true
}

// Parallel reports whether the machine is in parallel host mode.
func (m *Machine) Parallel() bool { return m.parallel }

// parLive counts live processors. Callers hold parMu.
func (m *Machine) parLive() int {
	n := 0
	for _, p := range m.procs {
		if p.live() {
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
		m.parMu.Lock()
		m.parPark(p, true)
		m.parMu.Unlock()
	}
	m.rec.Emit(trace.KQuantumStart, p.id, int64(p.clock), 0, 0, "")
}

// parPark is the one park loop; callers hold parMu. It parks p through
// every stop-the-world window another processor owns and, when runEnd is
// set (a safepoint, not a processor waiting to stop the world itself),
// through the end of a stopped Run, until the next Run bumps runGen. The
// conditions are re-examined after every wake, so p never runs on while
// a newer window is open; only shutdown falls through (the work function
// will observe Stopped and return). It reports whether a window passed:
// another processor's collection ran meanwhile.
func (m *Machine) parPark(p *Proc, runEnd bool) (collected bool) {
	for !m.shutdownPar {
		stw := m.stwOwner != nil && m.stwOwner != p
		if !stw && !(runEnd && m.stopPending) {
			break
		}
		parked, gen, was := &m.parkedStop, &m.runGen, m.runGen
		if stw {
			parked, gen, was = &m.parkedSTW, &m.gcGen, m.gcGen
		}
		*parked++
		m.parCond.Broadcast()
		for *gen == was && !m.shutdownPar {
			m.parCond.Wait()
		}
		*parked--
		collected = collected || stw
	}
	return collected
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
	m.parMu.Unlock()

	m.parRelease()

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

// parRelease, once per machine, resumes every live coroutine — suspended
// since boot ran under the deterministic driver — on a host goroutine of
// its own. From here on they never switch again and only ever park on
// parCond; each goroutine ends when its work function returns. Like
// running, parReleased belongs to Run's and Shutdown's caller alone.
func (m *Machine) parRelease() {
	if m.parReleased {
		return
	}
	m.parReleased = true
	for _, p := range m.procs {
		if p.live() {
			go p.co()
		}
	}
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
// collection and re-examine the heap. Windows do not nest: a stop by
// the processor that already owns the world panics. In deterministic
// mode the world is always stopped by construction and the call is a
// no-op returning true.
func (m *Machine) StopTheWorld(p *Proc) bool {
	if !m.parallel {
		return true
	}
	m.parMu.Lock()
	if m.stwOwner == p {
		m.parMu.Unlock()
		panic("firefly: StopTheWorld by the processor that already stopped it")
	}
	if m.parPark(p, false) || m.stwOwner != nil {
		// Lost the race: every window that opened meanwhile has closed
		// (or the machine is shutting down under another owner).
		m.parMu.Unlock()
		return false
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
// pause is already on their clocks: the owner stalled them with
// StallOthers before it resumed.
func (m *Machine) ResumeTheWorld(p *Proc) {
	if !m.parallel {
		return
	}
	m.parMu.Lock()
	if m.stwOwner != p {
		panic("firefly: ResumeTheWorld by a processor that did not stop it")
	}
	m.stwOwner = nil
	m.gcGen++
	m.recomputeParFlag()
	m.parCond.Broadcast()
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
	m.parMu.Unlock()

	m.parRelease() // in case Shutdown comes before the first parallel Run

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
