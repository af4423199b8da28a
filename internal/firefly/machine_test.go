package firefly

import (
	"math/rand"
	"reflect"
	"testing"

	"mst/internal/trace"
)

func TestSingleProcessorRunsToCompletion(t *testing.T) {
	m := New(1, DefaultCosts())
	steps := 0
	m.Start(0, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(10)
			steps++
			p.CheckYield()
		}
	})
	if r := m.Run(nil); r != StopAllDone {
		t.Fatalf("Run = %v, want StopAllDone", r)
	}
	if steps != 100 {
		t.Fatalf("steps = %d, want 100", steps)
	}
	if got := m.Proc(0).Now(); got != 1000 {
		t.Fatalf("clock = %d, want 1000", got)
	}
}

func TestMinTimeFirstInterleaving(t *testing.T) {
	// A slow and a fast processor: the driver must interleave so that
	// their clocks stay within one quantum of each other.
	m := New(2, DefaultCosts())
	m.SetQuantum(50)
	var maxSkew Time
	finished := [2]bool{}
	run := func(cost Time, iters int) func(*Proc) {
		return func(p *Proc) {
			other := m.Proc(1 - p.ID())
			for i := 0; i < iters; i++ {
				p.Advance(cost)
				if d := p.Now() - other.Now(); d > maxSkew && !finished[other.ID()] {
					maxSkew = d
				}
				p.CheckYield()
			}
			finished[p.ID()] = true
		}
	}
	m.Start(0, run(5, 1000))  // finishes at t=5000
	m.Start(1, run(10, 1000)) // finishes at t=10000
	if r := m.Run(nil); r != StopAllDone {
		t.Fatalf("Run = %v, want StopAllDone", r)
	}
	// Skew can exceed the quantum only by one step's cost.
	if maxSkew > 50+10 {
		t.Fatalf("max clock skew %d exceeds quantum+step", maxSkew)
	}
}

func TestUntilPredicateStopsRun(t *testing.T) {
	m := New(1, DefaultCosts())
	var n int
	m.Start(0, func(p *Proc) {
		for !p.Stopped() {
			n++
			p.Advance(1)
			p.Yield()
		}
	})
	r := m.Run(func() bool { return n >= 10 })
	if r != StopUntil {
		t.Fatalf("Run = %v, want StopUntil", r)
	}
	if n < 10 {
		t.Fatalf("n = %d, want >= 10", n)
	}
	// The machine can be continued.
	r = m.Run(func() bool { return n >= 20 })
	if r != StopUntil || n < 20 {
		t.Fatalf("second Run = %v, n = %d", r, n)
	}
	m.Shutdown()
}

func TestTimeLimit(t *testing.T) {
	m := New(1, DefaultCosts())
	m.SetTimeLimit(500)
	m.Start(0, func(p *Proc) {
		for !p.Stopped() {
			p.Advance(100)
			p.Yield()
		}
	})
	if r := m.Run(nil); r != StopTimeLimit {
		t.Fatalf("Run = %v, want StopTimeLimit", r)
	}
	m.Shutdown()
}

func TestSpinlockMutualExclusionInVirtualTime(t *testing.T) {
	// Two processors increment a shared counter inside a critical
	// section whose virtual duration is long; without the lock their
	// critical sections would overlap in virtual time.
	m := New(2, DefaultCosts())
	m.SetQuantum(10)
	l := m.NewSpinlock("test", true)
	type interval struct{ start, end Time }
	var intervals []interval
	body := func(p *Proc) {
		for i := 0; i < 25; i++ {
			l.Acquire(p)
			start := p.Now()
			p.Advance(60) // long (host-atomic) critical section
			intervals = append(intervals, interval{start, p.Now()})
			l.Release(p)
			p.Advance(7)
			p.CheckYield()
		}
	}
	m.Start(0, body)
	m.Start(1, body)
	if r := m.Run(nil); r != StopAllDone {
		t.Fatalf("Run = %v, want StopAllDone", r)
	}
	if len(intervals) != 50 {
		t.Fatalf("got %d critical sections, want 50", len(intervals))
	}
	for i := range intervals {
		for j := i + 1; j < len(intervals); j++ {
			a, b := intervals[i], intervals[j]
			if a.start < b.end && b.start < a.end {
				t.Fatalf("critical sections overlap in virtual time: %+v and %+v", a, b)
			}
		}
	}
	ls := m.LockStats()
	if len(ls) != 1 || ls[0].Acquisitions != 50 {
		t.Fatalf("lock stats = %+v, want 50 acquisitions", ls)
	}
	if ls[0].Contentions == 0 {
		t.Fatalf("expected contention on a hot lock, got none")
	}
}

func TestDisabledSpinlockIsFree(t *testing.T) {
	m := New(1, DefaultCosts())
	l := m.NewSpinlock("off", false)
	m.Start(0, func(p *Proc) {
		before := p.Now()
		l.Acquire(p)
		l.Release(p)
		if p.Now() != before {
			t.Errorf("disabled lock charged time: %d -> %d", before, p.Now())
		}
	})
	m.Run(nil)
}

func TestRecursiveAcquirePanics(t *testing.T) {
	m := New(1, DefaultCosts())
	l := m.NewSpinlock("rec", true)
	panicked := false
	m.Start(0, func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		l.Acquire(p)
		l.Acquire(p)
	})
	m.Run(nil)
	if !panicked {
		t.Fatal("recursive acquire did not panic")
	}
}

func TestEventsDeliverInOrderAtVirtualTime(t *testing.T) {
	m := New(2, DefaultCosts())
	var log []int
	var logTimes []Time
	m.At(250, func() { log = append(log, 1) })
	m.At(100, func() { log = append(log, 0) })
	m.At(250, func() { log = append(log, 2) }) // same time: FIFO by insertion
	stepper := func(p *Proc) {
		for i := 0; i < 40; i++ {
			p.Advance(10)
			logTimes = append(logTimes, p.Now())
			p.CheckYield()
		}
	}
	m.Start(0, stepper)
	m.Start(1, stepper)
	m.Run(nil)
	if len(log) != 3 || log[0] != 0 || log[1] != 1 || log[2] != 2 {
		t.Fatalf("event order = %v, want [0 1 2]", log)
	}
}

func TestStallOthersAdvancesClocks(t *testing.T) {
	m := New(3, DefaultCosts())
	m.Start(0, func(p *Proc) {
		p.Advance(100)
		m.StallOthers(p, 5000)
	})
	m.Start(1, func(p *Proc) { p.Advance(10) })
	m.Start(2, func(p *Proc) { p.Advance(10); p.Yield(); p.Advance(1) })
	m.Run(nil)
	if got := m.Proc(2).Stats().Stall; got == 0 {
		t.Fatalf("processor 2 stall = %d, want > 0", got)
	}
	if got := m.Proc(2).Now(); got < 5000 {
		t.Fatalf("processor 2 clock = %d, want >= 5000", got)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func() []int {
		m := New(3, DefaultCosts())
		m.SetQuantum(17)
		l := m.NewSpinlock("l", true)
		var order []int
		for i := 0; i < 3; i++ {
			m.Start(i, func(p *Proc) {
				for k := 0; k < 50; k++ {
					l.Acquire(p)
					order = append(order, p.ID())
					p.Advance(Time(3 + p.ID()))
					l.Release(p)
					p.Advance(2)
					p.CheckYield()
				}
			})
		}
		m.Run(nil)
		return order
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestProcStatsAccounting(t *testing.T) {
	m := New(1, DefaultCosts())
	m.Start(0, func(p *Proc) {
		p.Advance(5)
		p.AdvanceSpin(7)
		p.AdvanceIdle(11)
		p.StallUntil(p.Now() + 13)
	})
	m.Run(nil)
	s := m.Proc(0).Stats()
	if s.Busy != 5 || s.Spin != 7 || s.Idle != 11 || s.Stall != 13 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Clock != 5+7+11+13 {
		t.Fatalf("clock = %d, want %d", s.Clock, 5+7+11+13)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1234).String(); got != "1.234ms" {
		t.Fatalf("Time(1234) = %q", got)
	}
	if got := Time(1234).Ms(); got != 1 {
		t.Fatalf("Ms = %d", got)
	}
}

func TestRWSpinlockReadersOverlapWritersExclude(t *testing.T) {
	m := New(3, DefaultCosts())
	m.SetQuantum(10)
	l := m.NewRWSpinlock("rw", true)
	type span struct {
		kind       string
		start, end Time
	}
	var spans []span
	reader := func(p *Proc) {
		for i := 0; i < 10; i++ {
			l.AcquireRead(p)
			s := p.Now()
			p.Advance(20)
			spans = append(spans, span{"r", s, p.Now()})
			l.ReleaseRead(p)
			p.Advance(5)
			p.CheckYield()
		}
	}
	m.Start(0, reader)
	m.Start(1, reader)
	m.Start(2, func(p *Proc) {
		for i := 0; i < 10; i++ {
			l.AcquireWrite(p)
			s := p.Now()
			p.Advance(15)
			spans = append(spans, span{"w", s, p.Now()})
			l.ReleaseWrite(p)
			p.Advance(30)
			p.CheckYield()
		}
	})
	if r := m.Run(nil); r != StopAllDone {
		t.Fatalf("Run = %v", r)
	}
	overlapsRead := false
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.start < b.end && b.start < a.end {
				if a.kind == "r" && b.kind == "r" {
					overlapsRead = true
				} else {
					t.Fatalf("writer overlapped in virtual time: %+v / %+v", a, b)
				}
			}
		}
	}
	if !overlapsRead {
		t.Error("readers never overlapped (two-level lock behaving exclusively)")
	}
}

func TestRWSpinlockDisabledIsFree(t *testing.T) {
	m := New(1, DefaultCosts())
	l := m.NewRWSpinlock("off", false)
	m.Start(0, func(p *Proc) {
		before := p.Now()
		l.AcquireRead(p)
		l.ReleaseRead(p)
		l.AcquireWrite(p)
		l.ReleaseWrite(p)
		if p.Now() != before {
			t.Errorf("disabled RW lock charged time")
		}
	})
	m.Run(nil)
}

// TestWorkPanicReachesRun: a panic in a work function is re-raised in
// Run's caller, once; the processor counts as done, so Shutdown still
// returns and the other processors still stop.
func TestWorkPanicReachesRun(t *testing.T) {
	m := New(2, DefaultCosts())
	survivorStopped := false
	m.Start(0, func(p *Proc) {
		for !p.Stopped() {
			p.Advance(10)
			p.CheckYield()
		}
		survivorStopped = true
	})
	m.Start(1, func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Advance(10)
			p.CheckYield()
		}
		panic("boom")
	})
	recovered := func() (r any) {
		defer func() { r = recover() }()
		m.Run(nil)
		return nil
	}()
	if recovered != "boom" {
		t.Fatalf("Run's caller recovered %v, want boom", recovered)
	}
	if r := m.Run(func() bool { return m.Proc(0).Now() > 5000 }); r != StopUntil {
		t.Fatalf("Run after the panic returned %v", r)
	}
	m.Shutdown()
	if !survivorStopped {
		t.Fatal("the surviving processor did not stop")
	}
}

// TestYieldToSelfStaysOffTheLoop: a Yield that reschedules the yielder
// returns from the fast path ahead of settle, which would have left its
// decision in the machine.
func TestYieldToSelfStaysOffTheLoop(t *testing.T) {
	m := New(1, DefaultCosts())
	m.Start(0, func(p *Proc) {
		m.next = nil
		p.Advance(10)
		p.Yield()
		if m.next != nil {
			t.Error("Yield to self went through the scheduling loop")
		}
	})
	if r := m.Run(nil); r != StopAllDone || m.Switches() != 2 {
		t.Fatalf("Run = %v after %d decisions, want all-done after 2", r, m.Switches())
	}
}

// idleYieldLoop is what Proc.Idle means, spelled with Yield: the
// reference TestIdleInPlaceMatchesYieldLoop holds the in-place loop to.
func idleYieldLoop(p *Proc, quantum func() IdleResult) {
	for !p.Stopped() {
		r := quantum()
		if r != IdleResume {
			p.Yield()
		}
		if r != IdleYielded {
			return
		}
	}
}

// idleOutcome is everything the two drivers of the differential test
// must agree on.
type idleOutcome struct {
	Reasons  []StopReason
	Procs    []ProcStats
	Switches uint64
	Locks    []LockStats
	Events   []trace.Event
	Total    uint64
	Fired    []Time // clock of processor 0 when each At event ran
	Results  [3]int // quanta by IdleResult
	Repolls  int    // polls repeated with no scheduling decision between
}

// runIdleScript drives one seeded workload on n processors with idle as
// each processor's idle loop. A processor alternates idle periods —
// quanta that advance idle time, TryAcquire a shared lock (re-polling
// without a decision when it is taken below the deadline), sometimes
// hold it, sometimes end past the deadline (then yielding twice, like
// the interpreter's idle loop), and sometimes find work — with busy
// stretches. At events wake processors, a time limit ends the run, and
// Run is re-entered after a StopUntil that lands mid-chain.
func runIdleScript(n int, seed int64, idle func(*Proc, func() IdleResult)) idleOutcome {
	m := New(n, DefaultCosts())
	m.SetQuantum(100)
	m.SetTimeLimit(60_000)
	rec := trace.NewRecorder(1 << 18)
	m.SetRecorder(rec)
	lock := m.NewSpinlock("shared", true)
	var out idleOutcome
	woken := make([]bool, n)
	for i := 0; i < 12; i++ {
		i := i
		m.At(Time(1000+4500*i), func() {
			woken[i%n] = true
			out.Fired = append(out.Fired, m.Proc(0).Now())
		})
	}
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		m.Start(i, func(p *Proc) {
			again := false
			quantum := func() (r IdleResult) {
				defer func() { out.Results[r]++ }()
				if again {
					again = false
					return IdleYielded
				}
				for {
					p.AdvanceIdle(7)
					if lock.TryAcquire(p) {
						break
					}
					if p.YieldSlack() <= 0 {
						return IdleYielded
					}
					out.Repolls++
				}
				roll := rng.Intn(100)
				if roll < 30 {
					p.Advance(Time(10 + rng.Intn(80))) // hold the lock a while
				}
				found := roll%20 == 0 || woken[p.ID()]
				woken[p.ID()] = false
				lock.Release(p)
				if rng.Intn(6) == 0 {
					p.AdvanceIdle(Time(50 + rng.Intn(300))) // run past the deadline
				}
				late := p.YieldSlack() <= 0
				switch {
				case !found:
					again = late
					return IdleYielded
				case late:
					return IdleResumeYielded
				}
				return IdleResume
			}
			for !p.Stopped() {
				idle(p, quantum)
				for k := rng.Intn(40); k > 0 && !p.Stopped(); k-- {
					lock.Acquire(p)
					p.Advance(5)
					lock.Release(p)
					p.Advance(Time(10 + rng.Intn(30)))
					p.CheckYield()
				}
			}
		})
	}
	decisions := 0
	for {
		r := m.Run(func() bool { decisions++; return decisions%53 == 0 })
		out.Reasons = append(out.Reasons, r)
		if r != StopUntil {
			break
		}
	}
	for i := 0; i < n; i++ {
		out.Procs = append(out.Procs, m.Proc(i).Stats())
	}
	out.Switches, out.Locks = m.Switches(), m.LockStats()
	out.Events, out.Total = rec.Events(), rec.Total()
	m.Shutdown()
	return out
}

// TestIdleInPlaceMatchesYieldLoop: Idle's in-place quanta are the Yield
// loop minus the coroutine switches — every clock, every statistic, the
// decision count, and the whole event stream (KHandoff's emitter
// included) are equal.
func TestIdleInPlaceMatchesYieldLoop(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			want := runIdleScript(n, seed, idleYieldLoop)
			got := runIdleScript(n, seed, (*Proc).Idle)
			if uint64(len(want.Events)) != want.Total || len(want.Reasons) < 10 ||
				want.Reasons[len(want.Reasons)-1] != StopTimeLimit || len(want.Fired) != 12 ||
				want.Results[IdleYielded]*want.Results[IdleResume]*want.Results[IdleResumeYielded] == 0 ||
				(n > 1 && want.Repolls == 0) {
				t.Fatalf("n=%d seed=%d: the script is not exercising what it should: %d/%d events, reasons %v, %d At events, results %v, %d repolls",
					n, seed, len(want.Events), want.Total, want.Reasons, len(want.Fired), want.Results, want.Repolls)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want.Events {
					if i >= len(got.Events) || got.Events[i] != want.Events[i] {
						t.Errorf("n=%d seed=%d: event %d differs: want %+v, got %+v", n, seed, i, want.Events[i], got.Events[min(i, len(got.Events)-1)])
						break
					}
				}
				got.Events, want.Events = nil, nil
				t.Fatalf("n=%d seed=%d: Idle diverges from the Yield loop:\nwant %+v\ngot  %+v", n, seed, want, got)
			}
		}
	}
}

// TestShutdownWithAllProcessorsIdle: with every coroutine parked in Idle
// the driver itself runs the quanta; Run still stops on its predicate
// and on the time limit, and Shutdown resumes and retires each one.
func TestShutdownWithAllProcessorsIdle(t *testing.T) {
	m := New(3, DefaultCosts())
	m.SetTimeLimit(10_000)
	var polls, returned int
	for i := 0; i < 3; i++ {
		m.Start(i, func(p *Proc) {
			for !p.Stopped() {
				p.Idle(func() IdleResult {
					polls++
					p.AdvanceIdle(250)
					return IdleYielded
				})
			}
			returned++
		})
	}
	if r := m.Run(func() bool { return polls >= 30 }); r != StopUntil || polls != 30 {
		t.Fatalf("Run = %v after %d polls, want until-satisfied after 30", r, polls)
	}
	if r := m.Run(nil); r != StopTimeLimit {
		t.Fatalf("Run = %v, want StopTimeLimit", r)
	}
	if polls < 3*10_000/250 || returned != 0 {
		t.Fatalf("%d polls, %d work functions returned before Shutdown", polls, returned)
	}
	m.Shutdown()
	if returned != 3 {
		t.Fatalf("Shutdown retired %d of 3 idle processors", returned)
	}
}

// TestIdleQuantumPanicReachesOwner: a quantum that panics while another
// processor's Yield (or the driver) is executing it unwinds its owner's
// work function, not the executor's; unrecovered there, it reaches Run's
// caller like any work-function panic.
func TestIdleQuantumPanicReachesOwner(t *testing.T) {
	m := New(2, DefaultCosts())
	var busySteps, polls int
	var inBusyYield bool
	var panickedUnderYield []bool
	var ownerSaw any
	m.Start(0, func(p *Proc) {
		for busySteps < 100 {
			busySteps++
			p.Advance(300)
			inBusyYield = true
			p.Yield()
			inBusyYield = false
		}
	})
	quantum := func(p *Proc, failAt int) func() IdleResult {
		return func() IdleResult {
			if polls++; polls == failAt {
				panickedUnderYield = append(panickedUnderYield, inBusyYield)
				panic("idle boom")
			}
			p.AdvanceIdle(250)
			return IdleYielded
		}
	}
	m.Start(1, func(p *Proc) {
		func() {
			defer func() { ownerSaw = recover() }()
			p.Idle(quantum(p, 5))
			t.Error("Idle returned normally from a panicking quantum")
		}()
		p.Idle(quantum(p, 200)) // proc 0 will be done: this one panics under the driver
	})
	recovered := func() (r any) {
		defer func() { r = recover() }()
		m.Run(nil)
		return nil
	}()
	if ownerSaw != "idle boom" || !reflect.DeepEqual(panickedUnderYield, []bool{true, false}) {
		t.Fatalf("owner recovered %v; quanta panicked under the other processor's Yield: %v, want [true false]", ownerSaw, panickedUnderYield)
	}
	if busySteps != 100 {
		t.Fatalf("the yielding processor was disturbed: %d of 100 steps", busySteps)
	}
	if recovered != "idle boom" || polls != 200 {
		t.Fatalf("Run's caller recovered %v after %d polls, want idle boom after 200", recovered, polls)
	}
	if r := m.Run(nil); r != StopAllDone {
		t.Fatalf("Run after the panic = %v, want StopAllDone", r)
	}
	m.Shutdown()
}

// TestYieldInsideIdleQuantumPanics: an in-place quantum has no coroutine
// of its own to suspend.
func TestYieldInsideIdleQuantumPanics(t *testing.T) {
	m := New(1, DefaultCosts())
	var saw any
	m.Start(0, func(p *Proc) {
		defer func() { saw = recover() }()
		p.Idle(func() IdleResult { p.Yield(); return IdleResume })
	})
	m.Run(nil)
	if saw == nil {
		t.Fatal("Yield inside an idle quantum did not panic")
	}
}
