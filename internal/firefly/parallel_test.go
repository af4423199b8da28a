package firefly

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// startCounters boots n processors deterministically (one trivial
// quantum each) so the machine is in the between-Runs state the
// parallel flip requires.
func startParallel(t *testing.T, n int, work func(p *Proc)) *Machine {
	t.Helper()
	m := New(n, DefaultCosts())
	for i := 0; i < n; i++ {
		m.Start(i, work)
	}
	m.SetParallel(true)
	if !m.Parallel() {
		t.Fatal("SetParallel did not take")
	}
	return m
}

// TestParallelSpinlockMutualExclusion: the CAS spinlock really
// serializes — concurrent increments of an unsynchronized counter
// under the lock lose no updates, and the invariant "a == b inside
// the critical section" holds.
func TestParallelSpinlockMutualExclusion(t *testing.T) {
	const procs, per = 4, 2000
	var a, b int // guarded by l; intentionally not atomic
	var l *Spinlock
	var doneProcs atomic.Int32
	work := func(p *Proc) {
		for i := 0; i < per; i++ {
			if p.Stopped() {
				return
			}
			l.Acquire(p)
			a++
			if a != b+1 {
				panic("lock did not exclude")
			}
			b++
			l.Release(p)
			p.Advance(10)
			p.CheckYield()
		}
		doneProcs.Add(1)
		for !p.Stopped() {
			p.AdvanceIdle(10)
			p.Yield()
		}
	}
	m := New(procs, DefaultCosts())
	l = m.NewSpinlock("test", true)
	for i := 0; i < procs; i++ {
		m.Start(i, work)
	}
	m.SetParallel(true)
	reason := m.Run(func() bool { return doneProcs.Load() == procs })
	if reason != StopUntil {
		t.Fatalf("Run returned %v", reason)
	}
	if a != procs*per || b != procs*per {
		t.Fatalf("lost updates: a=%d b=%d want %d", a, b, procs*per)
	}
	st := m.LockStats()
	if len(st) != 1 || st[0].Acquisitions != procs*per {
		t.Fatalf("lock stats: %+v", st)
	}
	m.Shutdown()
}

// TestParallelStopTheWorldRendezvous: while the world is stopped the
// owner sees every mutator at a safepoint — the two-step unlocked
// mutation (x++ ... y++) is never visible half-done — and a second
// simultaneous stopper observes that a collection already ran and
// backs off (returns false).
func TestParallelStopTheWorldRendezvous(t *testing.T) {
	const stoppers = 2
	var x, y int64 // mutated without locks, but only between safepoints
	var arrived atomic.Int32
	var trueCount, falseCount atomic.Int32
	var mutatorDone, stopperDone atomic.Int32

	mutator := func(p *Proc) {
		for i := 0; i < 5000 && !p.Stopped(); i++ {
			x++
			y++
			p.Advance(5)
			p.CheckYield()
		}
		mutatorDone.Store(1)
		for !p.Stopped() {
			p.AdvanceIdle(10)
			p.Yield()
		}
	}
	stopper := func(p *Proc) {
		// Host-level barrier so both stoppers collide on the world.
		arrived.Add(1)
		for arrived.Load() < stoppers {
			runtime.Gosched()
		}
		if p.m.StopTheWorld(p) {
			if x != y {
				panic("world not stopped: x != y")
			}
			before := x
			p.Advance(100) // simulated collection work
			if x != before {
				panic("mutator ran during the pause")
			}
			trueCount.Add(1)
			p.m.ResumeTheWorld(p)
		} else {
			falseCount.Add(1)
		}
		stopperDone.Add(1)
		for !p.Stopped() {
			p.AdvanceIdle(10)
			p.Yield()
		}
	}

	m := New(3, DefaultCosts())
	m.Start(0, mutator)
	m.Start(1, stopper)
	m.Start(2, stopper)
	m.SetParallel(true)
	reason := m.Run(func() bool {
		return mutatorDone.Load() == 1 && stopperDone.Load() == stoppers
	})
	if reason != StopUntil {
		t.Fatalf("Run returned %v", reason)
	}
	if trueCount.Load() != 1 || falseCount.Load() != 1 {
		t.Fatalf("simultaneous stoppers: %d owned the world, %d backed off; want exactly 1 and 1",
			trueCount.Load(), falseCount.Load())
	}
	if x != 5000 || y != 5000 {
		t.Fatalf("mutator work lost: x=%d y=%d", x, y)
	}
	m.Shutdown()
}

// TestParallelRunRepeats: Run can be called repeatedly in parallel
// mode, the time limit stops a runaway run, and stall/clock accounting
// survives the mode. Also exercises Shutdown with processors parked.
func TestParallelRunRepeatsAndTimeLimit(t *testing.T) {
	var phase atomic.Int32
	work := func(p *Proc) {
		for !p.Stopped() {
			p.Advance(20)
			if phase.Load() == 0 {
				phase.Store(1)
			}
			p.CheckYield()
		}
	}
	m := startParallel(t, 2, work)
	if r := m.Run(func() bool { return phase.Load() >= 1 }); r != StopUntil {
		t.Fatalf("first Run returned %v", r)
	}
	m.SetTimeLimit(m.Proc(0).Now() + 10000)
	if r := m.Run(func() bool { return false }); r != StopTimeLimit {
		t.Fatalf("limited Run returned %v", r)
	}
	for i := 0; i < m.NumProcs(); i++ {
		st := m.Proc(i).Stats()
		if st.Clock <= 0 {
			t.Fatalf("proc %d clock did not advance: %+v", i, st)
		}
	}
	m.Shutdown()
	// Shutdown is idempotent.
	m.Shutdown()
}

// TestParallelRWSpinlock: writers exclude each other and all readers;
// reader counts really overlap.
func TestParallelRWSpinlock(t *testing.T) {
	const procs = 4
	var shared [2]int64 // written only by writers, under the write lock
	var rw *RWSpinlock
	var done atomic.Int32
	work := func(p *Proc) {
		for i := 0; i < 1500; i++ {
			if p.Stopped() {
				return
			}
			if p.ID()%2 == 0 {
				rw.AcquireWrite(p)
				shared[0]++
				if shared[0] != shared[1]+1 {
					panic("write lock did not exclude")
				}
				shared[1]++
				rw.ReleaseWrite(p)
			} else {
				rw.AcquireRead(p)
				if shared[0] != shared[1] {
					panic("reader saw a half-done write")
				}
				rw.ReleaseRead(p)
			}
			p.Advance(7)
			p.CheckYield()
		}
		done.Add(1)
		for !p.Stopped() {
			p.AdvanceIdle(10)
			p.Yield()
		}
	}
	m := New(procs, DefaultCosts())
	rw = m.NewRWSpinlock("rwtest", true)
	for i := 0; i < procs; i++ {
		m.Start(i, work)
	}
	m.SetParallel(true)
	if r := m.Run(func() bool { return done.Load() == procs }); r != StopUntil {
		t.Fatalf("Run returned %v", r)
	}
	if want := int64(2 * 1500); shared[0] != want || shared[1] != want {
		t.Fatalf("writer updates lost: %v want %d", shared, want)
	}
	m.Shutdown()
}

// TestStopTheWorldHandover: the handover rule. Every processor keeps
// trying to stop the world; inside its window the owner mutates a plain
// word and an inside flag, and outside one — whether it owned the last
// window or lost the race for it — every processor reads both between
// safepoints. A processor that returns from StopTheWorld while another
// owns a newer window panics on the flag and is a report under -race.
func TestStopTheWorldHandover(t *testing.T) {
	const procs, rounds = 4, 400
	var word int    // written only inside a window; intentionally not atomic
	var inside bool // likewise
	var owned, finished atomic.Int32
	work := func(p *Proc) {
		seen := 0
		for i := 0; i < rounds && !p.Stopped(); i++ {
			if p.m.StopTheWorld(p) {
				if inside {
					panic("two processors own the world")
				}
				inside = true
				word++
				runtime.Gosched() // widen the window
				inside = false
				owned.Add(1)
				p.m.ResumeTheWorld(p)
			}
			for j := 0; j < 3; j++ {
				if inside {
					panic("processor ran inside another's stop-the-world window")
				}
				seen += word
				p.Advance(100)
				p.CheckYield()
			}
		}
		finished.Add(1)
		for !p.Stopped() {
			p.AdvanceIdle(10)
			p.Yield()
		}
	}
	m := startParallel(t, procs, work)
	if r := m.Run(func() bool { return finished.Load() == procs }); r != StopUntil {
		t.Fatalf("Run returned %v", r)
	}
	if owned.Load() == 0 || word != int(owned.Load()) {
		t.Fatalf("word=%d after %d owned windows", word, owned.Load())
	}
	m.Shutdown()
}

// TestStopTheWorldDoesNotNest: a stop by the processor that already owns
// the world panics. Without the panic, parPark would report a lost race
// and the owner's nested collection would be skipped silently.
func TestStopTheWorldDoesNotNest(t *testing.T) {
	var nested atomic.Value
	var finished atomic.Bool
	m := startParallel(t, 2, func(p *Proc) {
		if p.ID() == 0 && p.m.StopTheWorld(p) {
			func() {
				defer func() { nested.Store(fmt.Sprint(recover())) }()
				p.m.StopTheWorld(p)
			}()
			p.m.ResumeTheWorld(p)
			finished.Store(true)
		}
		for !p.Stopped() {
			p.AdvanceIdle(10)
			p.Yield()
		}
	})
	if r := m.Run(finished.Load); r != StopUntil {
		t.Fatalf("Run returned %v", r)
	}
	m.Shutdown()
	if got, _ := nested.Load().(string); !strings.Contains(got, "already stopped it") {
		t.Fatalf("nested StopTheWorld recovered %q, want the owner's panic", got)
	}
}

// TestIdleParallelReachesRendezvousAndShutdown: the parallel twin of the
// in-place idle tests. Processors boot deterministically into Idle, are
// parked there when the machine flips, and from then on run the same
// quantum function on their own goroutines with a safepoint after every
// quantum that yields: an idle processor is never stopped mid-quantum,
// never starts a second quantum with the same stop-the-world request
// pending, and Shutdown retires it from inside Idle.
func TestIdleParallelReachesRendezvousAndShutdown(t *testing.T) {
	const idlers, windows = 2, 300
	m := New(idlers+1, DefaultCosts())
	var window int       // written only inside a stop-the-world window; intentionally not atomic
	var x, y [idlers]int // written only by their idle processor, between safepoints
	var polls [idlers]atomic.Int64
	var parPhase, stopperDone atomic.Bool
	var lateQuanta, returned atomic.Int32
	m.Start(0, func(p *Proc) {
		var seen [idlers]int64
		for !p.Stopped() {
			if parPhase.Load() && window < windows && m.StopTheWorld(p) {
				for i := range x {
					if x[i] != y[i] {
						panic("idle processor stopped mid-quantum")
					}
				}
				window++
				p.Advance(50)
				m.ResumeTheWorld(p)
				stopperDone.Store(window == windows)
				// Let every idle processor run a few quanta before the
				// next window, or they would sleep through most of them.
				for i := 0; i < idlers && window < windows; i++ {
					for seen[i] += 3; polls[i].Load() < seen[i]; {
						runtime.Gosched()
					}
					seen[i] = polls[i].Load()
				}
			}
			p.Advance(100)
			p.Yield()
		}
		returned.Add(1)
	})
	for i := 0; i < idlers; i++ {
		m.Start(1+i, func(p *Proc) {
			sawFlagIn, safepointSince := -1, true
			quantum := func() IdleResult {
				n := polls[i].Add(1)
				if m.parFlag.Load() {
					if sawFlagIn == window && safepointSince {
						lateQuanta.Add(1)
					}
					sawFlagIn = window
				}
				safepointSince = n%7 != 0 // IdleResume goes on without one
				x[i]++
				runtime.Gosched() // widen the quantum
				y[i]++
				p.AdvanceIdle(10)
				switch {
				case n%7 == 0:
					return IdleResume
				case n%11 == 0:
					return IdleResumeYielded
				}
				return IdleYielded
			}
			for !p.Stopped() {
				p.Idle(quantum)
			}
			returned.Add(1)
		})
	}
	booted := func() bool { return polls[0].Load() >= 20 && polls[1].Load() >= 20 }
	if r := m.Run(booted); r != StopUntil {
		t.Fatalf("deterministic Run returned %v", r)
	}
	m.SetParallel(true)
	parPhase.Store(true)
	if r := m.Run(stopperDone.Load); r != StopUntil {
		t.Fatalf("parallel Run returned %v", r)
	}
	if window != windows || lateQuanta.Load() != 0 {
		t.Fatalf("%d of %d windows; %d idle quanta started with a stop they had already seen still pending",
			window, windows, lateQuanta.Load())
	}
	m.Shutdown()
	if returned.Load() != idlers+1 {
		t.Fatalf("Shutdown retired %d of %d processors", returned.Load(), idlers+1)
	}
}
