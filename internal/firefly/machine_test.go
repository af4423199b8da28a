package firefly

import (
	"testing"
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
