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
	c.OnRelease(0, "scheduler")
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

// A lock re-acquired by its holder closes a one-lock order cycle:
// firefly's Spinlock panics first, so only an RWSpinlock gets here.
func TestDoubleAcquire(t *testing.T) {
	c := New()
	c.RegisterLock("method-cache", true)
	c.OnAcquire(2, 1, "method-cache")
	c.OnAcquire(2, 2, "method-cache")
	if got := c.LockOrderCycles(); !reflect.DeepEqual(got, []string{"method-cache -> method-cache"}) {
		t.Fatalf("cycles = %v, want the one-lock cycle", got)
	}
}

// A stray release is firefly's to catch (a Spinlock panics first); the
// checker only keeps its lockset straight.
func TestReleaseNotHeld(t *testing.T) {
	c := New()
	c.RegisterLock("alloc", true)
	c.OnRelease(0, "alloc")
	if !c.Clean() || c.Stats().LockEvents != 1 {
		t.Fatalf("stray release: clean=%v stats=%+v", c.Clean(), c.Stats())
	}
}

// A release by another processor leaves the holder's lockset intact.
func TestReleaseByOtherProcNotHeld(t *testing.T) {
	c := New()
	c.RegisterLock("alloc", true)
	c.RegisterGuard("eden", "alloc")
	c.OnAcquire(0, 1, "alloc")
	c.OnRelease(1, "alloc")
	c.OnAccess(0, 3, "eden")
	if !c.Clean() {
		t.Fatalf("holder lost its lock to another processor's release:\n%s", c.Report())
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
	c.OnRelease(0, "b")
	c.OnRelease(0, "a")
	c.OnAcquire(1, 1, "b")
	c.OnAcquire(1, 2, "a")
	c.OnRelease(1, "a")
	c.OnRelease(1, "b")
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
		c.OnRelease(proc, "b")
		c.OnRelease(proc, "a")
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
		c.OnRelease(0, "a")
		c.OnRelease(0, "c")
		c.OnAcquire(1, 1, "a")
		c.OnAcquire(1, 2, "b")
		c.OnRelease(1, "b")
		c.OnRelease(1, "a")
		c.OnAcquire(2, 1, "b")
		c.OnAcquire(2, 2, "c")
		c.OnRelease(2, "c")
		c.OnRelease(2, "b")
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
		c.OnRelease(0, "l")
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
