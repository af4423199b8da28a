package msvet

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// stubSrc is what the analyzer tests' sources lean on: the firefly
// types the analyzers key on, stubbed in the package under test.
const stubSrc = `package %s

import "fixture/internal/firefly"

type Proc struct{}

func (p *Proc) CheckYield()            {}
func (p *Proc) Advance(d firefly.Time) {}

type Spinlock struct{}

func (l *Spinlock) Acquire(p *Proc)         {}
func (l *Spinlock) TryAcquire(p *Proc) bool { return true }
func (l *Spinlock) Release(p *Proc)         {}

type RWSpinlock struct{}

func (l *RWSpinlock) AcquireRead(p *Proc)  {}
func (l *RWSpinlock) ReleaseRead(p *Proc)  {}
func (l *RWSpinlock) AcquireWrite(p *Proc) {}
func (l *RWSpinlock) ReleaseWrite(p *Proc) {}

type Machine struct{}

func (m *Machine) StopTheWorld(p *Proc) bool  { return true }
func (m *Machine) ResumeTheWorld(p *Proc)     {}
func (m *Machine) Start(i int, f func(*Proc)) {}

type Program struct{ DispatchCost firefly.Time }

type Interp struct{ p *Proc }

func work() {}
`

// writeModule writes files (slash path → content) under root.
func writeModule(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runOn writes the given sources (name → content) as the package at
// pkgPath of a throwaway module — next to the stubs, with a minimal
// internal/firefly — and runs a single analyzer over it through the
// typed loader, exactly like the real msvet run.
func runOn(t *testing.T, a *Analyzer, pkgPath string, sources map[string]string) []Finding {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                      "module fixture\n\ngo 1.22\n",
		"internal/firefly/firefly.go": "package firefly\n\ntype Time int64\n",
	}
	if pkgPath != "internal/firefly" {
		files[pkgPath+"/stub.go"] = fmt.Sprintf(stubSrc, path.Base(pkgPath))
	}
	for name, src := range sources {
		files[pkgPath+"/"+name] = src
	}
	writeModule(t, root, files)
	mod, err := LoadTyped(root)
	if err != nil {
		t.Fatalf("LoadTyped: %v", err)
	}
	findings, err := RunSuite(mod, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func wantFindings(t *testing.T, got []Finding, n int, contains string) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("got %d findings, want %d: %v", len(got), n, got)
	}
	if n > 0 && contains != "" && !strings.Contains(got[0].Message, contains) {
		t.Errorf("finding %q does not mention %q", got[0].Message, contains)
	}
}

// ---- virttime ----

func TestVirttimeFlagsHostClock(t *testing.T) {
	got := runOn(t, VirttimeAnalyzer, "internal/firefly", map[string]string{
		"bad.go": `package firefly
import "time"
var t0 = time.Now()
`,
	})
	wantFindings(t, got, 1, "determinism")
}

func TestVirttimeAllowsHostPackagesAndTests(t *testing.T) {
	got := runOn(t, VirttimeAnalyzer, "internal/bench", map[string]string{
		"ok.go": `package bench
import "time"
var t0 = time.Now()
`,
	})
	wantFindings(t, got, 0, "")
	got = runOn(t, VirttimeAnalyzer, "internal/firefly", map[string]string{
		"ok_test.go": `package firefly
import "time"
var t0 = time.Now()
`,
	})
	wantFindings(t, got, 0, "")
}

func TestVirttimeFlagsMathRand(t *testing.T) {
	got := runOn(t, VirttimeAnalyzer, "internal/interp", map[string]string{
		"bad.go": `package interp
import "math/rand"
var x = rand.Int()
`,
	})
	wantFindings(t, got, 1, "randomness")
}

// ---- lockpair ----

func TestLockpairFlagsMissingRelease(t *testing.T) {
	got := runOn(t, LockpairAnalyzer, "internal/x", map[string]string{
		"bad.go": `package x
func f(l *Spinlock, p *Proc) {
	l.Acquire(p)
	work()
}
`,
	})
	// Both the pairing check and the hold walk's exit check fire.
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2 (pairing + exit): %v", len(got), got)
	}
	if !strings.Contains(got[0].Message, "never released") {
		t.Errorf("first finding: %q", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "still held") {
		t.Errorf("second finding: %q", got[1].Message)
	}
}

func TestLockpairFlagsLeakOnOnePath(t *testing.T) {
	got := runOn(t, LockpairAnalyzer, "internal/x", map[string]string{
		"bad.go": `package x
func f(l *Spinlock, p *Proc, cond bool) {
	l.Acquire(p)
	if cond {
		return // BUG: still holding l
	}
	l.Release(p)
}
`,
	})
	wantFindings(t, got, 1, "still held")
}

func TestLockpairCleanPatterns(t *testing.T) {
	got := runOn(t, LockpairAnalyzer, "internal/x", map[string]string{
		"ok.go": `package x
func plain(l *Spinlock, p *Proc) {
	l.Acquire(p)
	work()
	l.Release(p)
}
func deferred(l *Spinlock, p *Proc) {
	l.Acquire(p)
	defer l.Release(p)
	work()
}
func earlyOut(l *Spinlock, p *Proc, n int) {
	l.Acquire(p)
	if n > 0 {
		l.Release(p)
		return
	}
	work()
	l.Release(p)
}
func tryBail(l *Spinlock, p *Proc) {
	if !l.TryAcquire(p) {
		p.CheckYield()
		return
	}
	work()
	l.Release(p)
}
func tryBlock(l *Spinlock, p *Proc) {
	if l.TryAcquire(p) {
		work()
		l.Release(p)
	}
}
func rw(l *RWSpinlock, p *Proc) {
	l.AcquireRead(p)
	work()
	l.ReleaseRead(p)
	l.AcquireWrite(p)
	work()
	l.ReleaseWrite(p)
}
func panics(l *Spinlock, p *Proc, bad bool) {
	l.Acquire(p)
	if bad {
		l.Release(p)
		panic("bad")
	}
	l.Release(p)
}
func correlated(l *RWSpinlock, p *Proc, shared bool) {
	locked := false
	if shared {
		l.AcquireRead(p)
		locked = true
	}
	work()
	if locked {
		l.ReleaseRead(p)
	}
}
func loops(l *Spinlock, p *Proc, n int) {
	for i := 0; i < n; i++ {
		l.Acquire(p)
		work()
		l.Release(p)
	}
}
`,
	})
	wantFindings(t, got, 0, "")
}

func TestLockpairFlagsReadWriteMismatch(t *testing.T) {
	got := runOn(t, LockpairAnalyzer, "internal/x", map[string]string{
		"bad.go": `package x
func f(l *RWSpinlock, p *Proc) {
	l.AcquireWrite(p)
	work()
	l.ReleaseRead(p) // BUG: wrong release flavor
}
`,
	})
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2 (pairing + exit): %v", len(got), got)
	}
}

func TestLockpairSkipsTestFiles(t *testing.T) {
	got := runOn(t, LockpairAnalyzer, "internal/x", map[string]string{
		"fault_test.go": `package x
func f(l *Spinlock, p *Proc) {
	l.Acquire(p) // deliberate fault injection
}
`,
	})
	wantFindings(t, got, 0, "")
}

func TestLockpairFuncLitIsOwnScope(t *testing.T) {
	got := runOn(t, LockpairAnalyzer, "internal/x", map[string]string{
		"bad.go": `package x
func f(l *Spinlock, m *Machine) {
	m.Start(0, func(p *Proc) {
		l.Acquire(p)
		work()
	})
}
`,
	})
	// The pairing check (whole decl) and the literal's own walk.
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(got), got)
	}
}

func TestLockpairFlagsStopTheWorldWithoutResume(t *testing.T) {
	got := runOn(t, LockpairAnalyzer, "internal/heap", map[string]string{
		"bad.go": `package heap
func f(m *Machine, p *Proc) {
	m.StopTheWorld(p)
	work()
}
`,
	})
	// Pairing only: the bool result makes the walk's state maybe-held.
	wantFindings(t, got, 1, "never released")
}

func TestLockpairFlagsWorldStoppedOnOnePath(t *testing.T) {
	got := runOn(t, LockpairAnalyzer, "internal/heap", map[string]string{
		"bad.go": `package heap
func f(m *Machine, p *Proc, cond bool) {
	if !m.StopTheWorld(p) {
		return
	}
	if cond {
		return // BUG: the world is still stopped
	}
	m.ResumeTheWorld(p)
}
`,
	})
	wantFindings(t, got, 1, "still held")
}

func TestLockpairStopTheWorldCleanPatterns(t *testing.T) {
	got := runOn(t, LockpairAnalyzer, "internal/heap", map[string]string{
		"ok.go": `package heap
func deferred(m *Machine, p *Proc) {
	if !m.StopTheWorld(p) {
		return
	}
	defer m.ResumeTheWorld(p)
	work()
}
func straightline(m *Machine, p *Proc) {
	if !m.StopTheWorld(p) {
		return
	}
	work()
	m.ResumeTheWorld(p)
}
`,
	})
	wantFindings(t, got, 0, "")
}

// ---- costcharge ----

func TestCostchargeFlagsInventedCosts(t *testing.T) {
	got := runOn(t, CostchargeAnalyzer, "internal/jit", map[string]string{
		"bad.go": `package jit
import "fixture/internal/firefly"
func price(p *Proc) {
	c := firefly.Time(3)
	p.Advance(c)
}
`,
	})
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(got), got)
	}
	for _, f := range got {
		if !strings.Contains(f.Message, "cost") && !strings.Contains(f.Message, "charg") {
			t.Errorf("finding %q does not mention costs or charging", f.Message)
		}
	}
}

func TestCostchargeAllowsTableDerivedCharges(t *testing.T) {
	got := runOn(t, CostchargeAnalyzer, "internal/jit", map[string]string{
		"ok.go": `package jit
import "fixture/internal/firefly"
func plan(p *Program, n int) firefly.Time {
	return firefly.Time(n-1) * p.DispatchCost
}
func zero() firefly.Time {
	return firefly.Time(0)
}
`,
	})
	wantFindings(t, got, 0, "")
}

func TestCostchargeScopedToJITPackage(t *testing.T) {
	got := runOn(t, CostchargeAnalyzer, "internal/interp", map[string]string{
		"ok.go": `package interp
import "fixture/internal/firefly"
func charge(in *Interp) {
	in.p.Advance(firefly.Time(1))
}
`,
	})
	wantFindings(t, got, 0, "")
}

// ---- framework ----

func TestFindingsSortedAndFormatted(t *testing.T) {
	findings := runOn(t, VirttimeAnalyzer, "internal/firefly", map[string]string{
		"b.go": `package firefly
import "time"
var t0 = time.Now()
`,
		"a.go": `package firefly

import "math/rand"
var x = rand.Int()
`,
	})
	if len(findings) != 2 {
		t.Fatalf("findings: %v", findings)
	}
	a, b := findings[0].String(), findings[1].String()
	if !strings.Contains(a, "a.go:3:") || !strings.Contains(b, "b.go:2:") || !strings.Contains(b, "[virttime]") {
		t.Errorf("sorting or formatting: %q, %q", a, b)
	}
}

func TestAnalyzersComplete(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	for _, want := range []string{
		"virttime", "lockpair", "costcharge",
		"stwsafe", "atomicguard", "barrierflow", "lockorder",
	} {
		if !names[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
	if len(names) != 7 {
		t.Errorf("suite has %d analyzers, want 7", len(names))
	}
}
