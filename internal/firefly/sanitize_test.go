package firefly

import (
	"reflect"
	"strings"
	"testing"

	"mst/internal/sanitize"
)

// Fault injection: a work function that accesses a guarded structure
// without acquiring its lock must trip the lockset checker; the same
// access under the lock must be clean.
func TestLocksetCatchesSkippedLock(t *testing.T) {
	run := func(skipLock bool) *sanitize.Checker {
		m := New(2, DefaultCosts())
		san := sanitize.New()
		m.SetSanitizer(san)
		san.RegisterGuard("shared-counter", "counter")
		l := m.NewSpinlock("counter", true)
		counter := 0
		body := func(p *Proc) {
			for i := 0; i < 5; i++ {
				if skipLock && p.ID() == 1 {
					// BUG UNDER TEST: unguarded access.
					san.OnAccess(p.ID(), int64(p.Now()), "shared-counter")
					counter++
				} else {
					l.Acquire(p)
					san.OnAccess(p.ID(), int64(p.Now()), "shared-counter")
					counter++
					l.Release(p)
				}
				p.Advance(10)
				p.CheckYield()
			}
		}
		m.Start(0, body)
		m.Start(1, body)
		if r := m.Run(nil); r != StopAllDone {
			t.Fatalf("Run = %v", r)
		}
		return san
	}

	if san := run(false); !san.Clean() {
		t.Fatalf("locked accesses flagged:\n%s", san.Report())
	}
	san := run(true)
	vs := san.Violations()
	if len(vs) != 5 {
		t.Fatalf("got %d violations, want 5 (one per skipped acquisition):\n%s", len(vs), san.Report())
	}
	for _, v := range vs {
		if v.Kind != sanitize.KindUnlockedAccess || v.Proc != 1 || v.Structure != "shared-counter" {
			t.Errorf("unexpected violation: %s", v)
		}
	}
}

// A disabled lock (baseline BS: multiprocessor support compiled out)
// exempts its structure — the single-threaded baseline must stay clean
// without ever acquiring.
func TestLocksetDisabledLockExemption(t *testing.T) {
	m := New(1, DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	san.RegisterGuard("shared-counter", "counter")
	l := m.NewSpinlock("counter", false)
	m.Start(0, func(p *Proc) {
		l.Acquire(p) // free no-op; emits no hook
		san.OnAccess(p.ID(), int64(p.Now()), "shared-counter")
		l.Release(p)
		san.OnAccess(p.ID(), int64(p.Now()), "shared-counter")
	})
	m.Run(nil)
	if !san.Clean() {
		t.Fatalf("baseline accesses flagged:\n%s", san.Report())
	}
	if san.Stats().AccessChecks != 2 {
		t.Errorf("access checks = %d, want 2", san.Stats().AccessChecks)
	}
}

// SetSanitizer after lock creation must backfill registrations, so the
// disabled-lock exemption works regardless of attach order.
func TestSanitizerBackfillsLockRegistration(t *testing.T) {
	m := New(1, DefaultCosts())
	l := m.NewSpinlock("late", false)
	san := sanitize.New()
	m.SetSanitizer(san)
	san.RegisterGuard("thing", "late")
	m.Start(0, func(p *Proc) {
		san.OnAccess(p.ID(), int64(p.Now()), "thing")
		_ = l
	})
	m.Run(nil)
	if !san.Clean() {
		t.Fatalf("backfilled disabled lock not exempt:\n%s", san.Report())
	}
}

// Release by a processor that does not hold the lock: the simulator
// panics (host-atomicity enforcement) before any sanitizer hook runs.
func TestReleaseByNonHolderPanics(t *testing.T) {
	m := New(2, DefaultCosts())
	l := m.NewSpinlock("owned", true)
	panicked := ""
	m.Start(0, func(p *Proc) {
		l.Acquire(p)
		p.Advance(5)
		p.Yield()
		l.Release(p)
	})
	m.Start(1, func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				panicked = r.(string)
			}
			// Unwind cleanly so proc 0 can finish.
		}()
		p.Advance(1)
		l.Release(p) // BUG UNDER TEST: not the holder
	})
	m.Run(nil)
	if !strings.Contains(panicked, "does not hold") {
		t.Fatalf("release by non-holder did not panic correctly: %q", panicked)
	}
}

// Lock-order cycle: two processors acquiring two real machine locks in
// opposite orders must produce exactly one deterministic cycle report.
func TestLocksetLockOrderCycle(t *testing.T) {
	runOnce := func() []string {
		m := New(2, DefaultCosts())
		san := sanitize.New()
		m.SetSanitizer(san)
		a := m.NewSpinlock("lock-a", true)
		b := m.NewSpinlock("lock-b", true)
		m.Start(0, func(p *Proc) {
			a.Acquire(p)
			b.Acquire(p)
			p.Advance(3)
			b.Release(p)
			a.Release(p)
		})
		m.Start(1, func(p *Proc) {
			p.Advance(50) // in virtual time, after proc 0's critical section
			b.Acquire(p)
			a.Acquire(p)
			p.Advance(3)
			a.Release(p)
			b.Release(p)
		})
		if r := m.Run(nil); r != StopAllDone {
			t.Fatalf("Run = %v", r)
		}
		if len(san.Violations()) != 0 {
			t.Fatalf("order cycle must not produce event violations:\n%s", san.Report())
		}
		return san.LockOrderCycles()
	}
	want := []string{"lock-a -> lock-b -> lock-a"}
	first := runOnce()
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("cycles = %v, want %v", first, want)
	}
	// Determinism: identical report on every rerun.
	for i := 0; i < 5; i++ {
		if got := runOnce(); !reflect.DeepEqual(got, first) {
			t.Fatalf("cycle report not deterministic: %v vs %v", got, first)
		}
	}
}

// RW lock hooks: a reader and a writer both satisfy the lockset for
// the guarded structure.
func TestLocksetRWLockCoversGuard(t *testing.T) {
	m := New(1, DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	san.RegisterGuard("shared-cache", "cache")
	l := m.NewRWSpinlock("cache", true)
	m.Start(0, func(p *Proc) {
		l.AcquireRead(p)
		san.OnAccess(p.ID(), int64(p.Now()), "shared-cache")
		l.ReleaseRead(p)
		l.AcquireWrite(p)
		san.OnAccess(p.ID(), int64(p.Now()), "shared-cache")
		l.ReleaseWrite(p)
		// BUG UNDER TEST: access after release.
		san.OnAccess(p.ID(), int64(p.Now()), "shared-cache")
	})
	m.Run(nil)
	vs := san.Violations()
	if len(vs) != 1 || vs[0].Kind != sanitize.KindUnlockedAccess {
		t.Fatalf("want exactly one unlocked-access after release, got:\n%s", san.Report())
	}
}

// The sanitizer must not perturb the simulation: identical virtual
// clocks and lock stats with and without it.
func TestSanitizerMachineDeterminism(t *testing.T) {
	run := func(sanitized bool) (Time, []LockStats) {
		m := New(2, DefaultCosts())
		if sanitized {
			m.SetSanitizer(sanitize.New())
		}
		m.SetQuantum(10)
		l := m.NewSpinlock("hot", true)
		var end Time
		body := func(p *Proc) {
			for i := 0; i < 20; i++ {
				l.Acquire(p)
				p.Advance(15)
				l.Release(p)
				p.CheckYield()
			}
			if p.Now() > end {
				end = p.Now()
			}
		}
		m.Start(0, body)
		m.Start(1, body)
		m.Run(nil)
		return end, m.LockStats()
	}
	plainEnd, plainLocks := run(false)
	checkedEnd, checkedLocks := run(true)
	if plainEnd != checkedEnd {
		t.Errorf("virtual end time diverges: off=%v on=%v", plainEnd, checkedEnd)
	}
	if !reflect.DeepEqual(plainLocks, checkedLocks) {
		t.Errorf("lock stats diverge: off=%+v on=%+v", plainLocks, checkedLocks)
	}
}
