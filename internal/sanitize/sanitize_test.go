package sanitize

import (
	"reflect"
	"strings"
	"testing"
)

func kinds(vs []Violation) []Kind {
	var ks []Kind
	for _, v := range vs {
		ks = append(ks, v.Kind)
	}
	return ks
}

func TestCleanLockedAccess(t *testing.T) {
	c := New()
	c.RegisterLock("scheduler", true)
	c.RegisterGuard("ready-queue", "scheduler")
	c.OnAcquire(0, 10, "scheduler")
	c.OnAccess(0, 11, "ready-queue")
	c.OnRelease(0, 12, "scheduler")
	if !c.Clean() {
		t.Fatalf("clean sequence reported violations: %v", c.Violations())
	}
	st := c.Stats()
	if st.LockEvents != 2 || st.AccessChecks != 1 {
		t.Errorf("stats = %+v, want 2 lock events, 1 access check", st)
	}
}

func TestUnlockedAccess(t *testing.T) {
	c := New()
	c.RegisterLock("scheduler", true)
	c.RegisterGuard("ready-queue", "scheduler")
	c.OnAccess(1, 5, "ready-queue")
	got := kinds(c.Violations())
	if !reflect.DeepEqual(got, []Kind{KindUnlockedAccess}) {
		t.Fatalf("violations = %v, want exactly [unlocked-access]", got)
	}
	v := c.Violations()[0]
	if v.Proc != 1 || v.At != 5 || v.Structure != "ready-queue" || v.Lock != "scheduler" {
		t.Errorf("violation detail wrong: %+v", v)
	}
}

func TestWrongLockHeldIsStillUnlocked(t *testing.T) {
	c := New()
	c.RegisterLock("scheduler", true)
	c.RegisterLock("alloc", true)
	c.RegisterGuard("ready-queue", "scheduler")
	c.OnAcquire(0, 1, "alloc")
	c.OnAccess(0, 2, "ready-queue")
	if !reflect.DeepEqual(kinds(c.Violations()), []Kind{KindUnlockedAccess}) {
		t.Fatalf("holding an unrelated lock must not satisfy the guard: %v", c.Violations())
	}
}

// Disabled locks model baseline BS: multiprocessor support compiled
// out, so accesses are single-threaded by construction and exempt.
func TestDisabledLockExemptsAccess(t *testing.T) {
	c := New()
	c.RegisterLock("scheduler", false)
	c.RegisterGuard("ready-queue", "scheduler")
	c.OnAccess(0, 1, "ready-queue")
	if !c.Clean() {
		t.Fatalf("disabled-lock access flagged: %v", c.Violations())
	}
}

func TestUnknownStructure(t *testing.T) {
	c := New()
	c.OnAccess(0, 1, "mystery")
	if !reflect.DeepEqual(kinds(c.Violations()), []Kind{KindUnknownStructure}) {
		t.Fatalf("violations = %v", c.Violations())
	}
}

func TestDoubleAcquire(t *testing.T) {
	c := New()
	c.RegisterLock("alloc", true)
	c.OnAcquire(2, 1, "alloc")
	c.OnAcquire(2, 2, "alloc")
	if !reflect.DeepEqual(kinds(c.Violations()), []Kind{KindDoubleAcquire}) {
		t.Fatalf("violations = %v", c.Violations())
	}
	// The first acquisition must still be tracked.
	c.OnRelease(2, 3, "alloc")
	if len(c.Violations()) != 1 {
		t.Errorf("release after double-acquire report added violations: %v", c.Violations())
	}
}

func TestReleaseNotHeld(t *testing.T) {
	c := New()
	c.RegisterLock("alloc", true)
	c.OnRelease(0, 1, "alloc")
	if !reflect.DeepEqual(kinds(c.Violations()), []Kind{KindReleaseNotHeld}) {
		t.Fatalf("violations = %v", c.Violations())
	}
}

func TestReleaseByOtherProcNotHeld(t *testing.T) {
	c := New()
	c.RegisterLock("alloc", true)
	c.OnAcquire(0, 1, "alloc")
	c.OnRelease(1, 2, "alloc")
	if !reflect.DeepEqual(kinds(c.Violations()), []Kind{KindReleaseNotHeld}) {
		t.Fatalf("violations = %v", c.Violations())
	}
}

func TestForeignAccess(t *testing.T) {
	c := New()
	c.OnOwnedAccess(0, 0, 1, "tlab")
	c.OnOwnedAccess(1, 0, 2, "tlab")
	got := kinds(c.Violations())
	if !reflect.DeepEqual(got, []Kind{KindForeignAccess}) {
		t.Fatalf("violations = %v, want exactly one foreign-access", c.Violations())
	}
	if c.Violations()[0].Proc != 1 {
		t.Errorf("foreign access attributed to proc %d, want 1", c.Violations()[0].Proc)
	}
}

func TestWriteBarrierReport(t *testing.T) {
	c := New()
	c.ReportWriteBarrier(0, 99, "old object 0x40 slot 2 -> new 0x8 not remembered")
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != KindWriteBarrier {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].String(), "not remembered") {
		t.Errorf("detail lost: %s", vs[0])
	}
}

func TestLockOrderCycleDetection(t *testing.T) {
	c := New()
	c.RegisterLock("a", true)
	c.RegisterLock("b", true)
	// proc 0: a then b; proc 1: b then a — classic deadlock potential.
	c.OnAcquire(0, 1, "a")
	c.OnAcquire(0, 2, "b")
	c.OnRelease(0, 3, "b")
	c.OnRelease(0, 4, "a")
	c.OnAcquire(1, 1, "b")
	c.OnAcquire(1, 2, "a")
	c.OnRelease(1, 3, "a")
	c.OnRelease(1, 4, "b")
	cycles := c.LockOrderCycles()
	if !reflect.DeepEqual(cycles, []string{"a -> b -> a"}) {
		t.Fatalf("cycles = %v, want [a -> b -> a]", cycles)
	}
	if c.Clean() {
		t.Error("checker with an order cycle reported Clean")
	}
}

func TestLockOrderNoCycleWhenConsistent(t *testing.T) {
	c := New()
	// Both processors acquire in the same order: no cycle.
	for proc := 0; proc < 2; proc++ {
		c.OnAcquire(proc, 1, "a")
		c.OnAcquire(proc, 2, "b")
		c.OnRelease(proc, 3, "b")
		c.OnRelease(proc, 4, "a")
	}
	if cycles := c.LockOrderCycles(); len(cycles) != 0 {
		t.Fatalf("consistent order produced cycles: %v", cycles)
	}
}

// Cycle reporting must be deterministic: the same scenario replayed
// into two checkers yields identical strings, including for a
// three-lock cycle where the canonical rotation matters.
func TestLockOrderCycleDeterminism(t *testing.T) {
	scenario := func() *Checker {
		c := New()
		// c -> a, a -> b, b -> c: one 3-cycle, witnessed in an order
		// that starts DFS from different entry points.
		c.OnAcquire(0, 1, "c")
		c.OnAcquire(0, 2, "a")
		c.OnRelease(0, 3, "a")
		c.OnRelease(0, 4, "c")
		c.OnAcquire(1, 1, "a")
		c.OnAcquire(1, 2, "b")
		c.OnRelease(1, 3, "b")
		c.OnRelease(1, 4, "a")
		c.OnAcquire(2, 1, "b")
		c.OnAcquire(2, 2, "c")
		c.OnRelease(2, 3, "c")
		c.OnRelease(2, 4, "b")
		return c
	}
	want := []string{"a -> b -> c -> a"}
	for i := 0; i < 10; i++ {
		got := scenario().LockOrderCycles()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: cycles = %v, want %v", i, got, want)
		}
	}
}

// Cycles is the one cycle renderer mscheck and msvet's lockorder share:
// every elementary cycle once, rotated to its smallest node, sorted,
// whatever order the edges come in.
func TestCyclesCanonicalAndOrderFree(t *testing.T) {
	edges := [][2]string{{"c", "a"}, {"a", "b"}, {"b", "c"}, {"b", "a"}, {"c", "d"}, {"a", "b"}}
	want := []string{"a -> b -> a", "a -> b -> c -> a"}
	for i := 0; i < len(edges); i++ {
		rot := append(append([][2]string(nil), edges[i:]...), edges[:i]...)
		if got := Cycles(rot); !reflect.DeepEqual(got, want) {
			t.Fatalf("rotation %d: Cycles = %v, want %v", i, got, want)
		}
	}
	if got := Cycles([][2]string{{"a", "b"}, {"b", "c"}}); len(got) != 0 {
		t.Errorf("acyclic graph: Cycles = %v", got)
	}
}

func TestFingerprintDiff(t *testing.T) {
	a := map[string]int64{"vms": 100, "sends": 500, "scavenges": 3}
	b := map[string]int64{"vms": 100, "sends": 501, "scavenges": 3}
	if d := FingerprintDiff("off", "on", a, a); len(d) != 0 {
		t.Fatalf("identical fingerprints diff: %v", d)
	}
	d := FingerprintDiff("off", "on", a, b)
	if len(d) != 1 || !strings.Contains(d[0], "sends") {
		t.Fatalf("diff = %v, want one line naming sends", d)
	}
	// Missing keys on either side are reported, deterministically sorted.
	c := map[string]int64{"vms": 100}
	d = FingerprintDiff("off", "on", a, c)
	if len(d) != 2 || !strings.Contains(d[0], "scavenges") || !strings.Contains(d[1], "sends") {
		t.Fatalf("diff = %v, want sorted lines for scavenges and sends", d)
	}
}

func TestReportCleanAndDirty(t *testing.T) {
	c := New()
	c.RegisterLock("scheduler", true)
	c.RegisterGuard("ready-queue", "scheduler")
	if r := c.Report(); !strings.Contains(r, "clean (0 violations)") {
		t.Errorf("clean report missing marker:\n%s", r)
	}
	c.OnAccess(0, 1, "ready-queue")
	r := c.Report()
	if !strings.Contains(r, "unlocked-access") || strings.Contains(r, "clean (0") {
		t.Errorf("dirty report wrong:\n%s", r)
	}
}

// ---- GC claim/publish (parallel scavenger forwarding protocol) ----

func TestGCClaimPublishClean(t *testing.T) {
	c := New()
	c.OnGCClaim(0, 100, 0x4000)
	c.OnGCClaim(1, 100, 0x4010)
	c.OnGCPublish(0, 101, 0x4000)
	c.OnGCPublish(1, 101, 0x4010)
	if !c.Clean() {
		t.Fatalf("clean claim/publish pairs reported violations: %v", c.Violations())
	}
}

func TestGCDoubleClaim(t *testing.T) {
	c := New()
	c.OnGCClaim(0, 100, 0x4000)
	c.OnGCClaim(2, 101, 0x4000)
	got := kinds(c.Violations())
	if !reflect.DeepEqual(got, []Kind{KindGCClaim}) {
		t.Fatalf("violations = %v, want exactly [gc-claim]", got)
	}
	v := c.Violations()[0]
	if v.Proc != 2 || !strings.Contains(v.Detail, "claimed twice") ||
		!strings.Contains(v.Detail, "processor 0") {
		t.Errorf("violation detail wrong: %+v", v)
	}
}

func TestGCPublishWithoutClaim(t *testing.T) {
	c := New()
	c.OnGCPublish(1, 50, 0x4000)
	if !reflect.DeepEqual(kinds(c.Violations()), []Kind{KindGCClaim}) {
		t.Fatalf("violations = %v, want exactly [gc-claim]", c.Violations())
	}
	if !strings.Contains(c.Violations()[0].Detail, "without a claim") {
		t.Errorf("violation detail wrong: %+v", c.Violations()[0])
	}
}

func TestGCPublishByForeignProc(t *testing.T) {
	c := New()
	c.OnGCClaim(0, 50, 0x4000)
	c.OnGCPublish(3, 51, 0x4000)
	if !reflect.DeepEqual(kinds(c.Violations()), []Kind{KindGCClaim}) {
		t.Fatalf("violations = %v, want exactly [gc-claim]", c.Violations())
	}
	if !strings.Contains(c.Violations()[0].Detail, "claimed by") {
		t.Errorf("violation detail wrong: %+v", c.Violations()[0])
	}
}

func TestGCClaimsResetBetweenScavenges(t *testing.T) {
	c := New()
	c.OnGCClaim(0, 100, 0x4000)
	c.OnGCPublish(0, 101, 0x4000)
	c.ResetGCClaims()
	// A fresh scavenge may claim the same address again (new objects
	// live there now).
	c.OnGCClaim(1, 200, 0x4000)
	c.OnGCPublish(1, 201, 0x4000)
	if !c.Clean() {
		t.Fatalf("claims across a reset reported violations: %v", c.Violations())
	}
}

// TestHooksNilSafe holds the hook rule where it is decided: a nil
// *Checker is the sanitizer switched off, and every hook on it returns
// without panicking and without allocating. A hook is any exported
// method with no result (the readers all return something), so a hook
// added later is covered without touching this test.
func TestHooksNilSafe(t *testing.T) {
	var c *Checker
	if n := testing.AllocsPerRun(100, func() {
		c.RegisterLock("l", true)
		c.RegisterGuard("s", "l")
		c.OnAcquire(0, 1, "l")
		c.OnAccess(0, 2, "s")
		c.OnOwnedAccess(0, 0, 3, "s")
		c.OnRelease(0, 4, "l")
		c.OnGCClaim(0, 5, 64)
		c.OnGCPublish(0, 6, 64)
		c.ResetGCClaims()
		c.OnMarkGrey(0, 7, 64)
		c.OnDeletionBarrier(0, 8, 64, false)
		c.ResetMarkClaims()
		c.ReportConcMark(0, 9, "d")
		c.ReportWriteBarrier(0, 10, "d")
		c.NoteBarrierScan(11)
	}); n != 0 {
		t.Errorf("hooks on a nil checker allocate %v times per run, want 0", n)
	}

	v := reflect.ValueOf(c)
	for i := 0; i < v.NumMethod(); i++ {
		m, name := v.Method(i), v.Type().Method(i).Name
		if m.Type().NumOut() != 0 {
			continue
		}
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			args[j] = reflect.Zero(m.Type().In(j))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Checker)(nil).%s panics: %v", name, r)
				}
			}()
			m.Call(args)
		}()
	}
}
