package msvet

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// The testdata fixtures are self-contained mini-modules (module
// "fixture"), one injected violation per call-graph-aware analyzer
// plus a clean twin. Loading one type-checks it against GOROOT source,
// exactly like the real msvet run.

func loadFixture(t *testing.T, name string) *Module {
	t.Helper()
	mod, err := LoadTyped(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("LoadTyped(%s): %v", name, err)
	}
	return mod
}

// fixtureFindings runs exactly one analyzer over one fixture module.
func fixtureFindings(t *testing.T, a *Analyzer, fixture string) []Finding {
	t.Helper()
	findings, err := RunSuite(loadFixture(t, fixture), []*Analyzer{a})
	if err != nil {
		t.Fatalf("RunSuite(%s, %s): %v", a.Name, fixture, err)
	}
	return findings
}

// wantFixtureFinding asserts exactly one finding, at an exact
// file:line:col, whose message contains each fragment.
func wantFixtureFinding(t *testing.T, got []Finding, line, col int, fragments ...string) {
	t.Helper()
	if len(got) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(got), got)
	}
	f := got[0]
	if filepath.Base(f.Pos.Filename) != "fx.go" || f.Pos.Line != line || f.Pos.Column != col {
		t.Errorf("finding at %s:%d:%d, want fx.go:%d:%d",
			filepath.Base(f.Pos.Filename), f.Pos.Line, f.Pos.Column, line, col)
	}
	for _, frag := range fragments {
		if !strings.Contains(f.Message, frag) {
			t.Errorf("finding %q does not mention %q", f.Message, frag)
		}
	}
}

// ---- stwsafe ----

func TestStwsafeFixtureFlagsReachableAllocation(t *testing.T) {
	got := fixtureFindings(t, StwsafeAnalyzer, "stwsafe_bad")
	if len(got) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(got), got)
	}
	// The allocation is one call away from the window: the finding is
	// inside refill, proving the check follows the call graph.
	wantFixtureFinding(t, got[:1], 29, 9, "allocation h.Allocate", "STW window")
	// Finalize's window is opened by spinning on StopTheWorld.
	wantFixtureFinding(t, got[1:2], 45, 2, "allocation h.Allocate", "STW window")
	// A stw-entry function called with the world running.
	wantFixtureFinding(t, got[2:], 58, 2, "call to fixture.(*Heap).sweep", "stw-entry", "outside the STW window")
}

// The hole both pairing shortcuts shared: a release on an early-out
// branch ended the hold for the rest of the function. Each fixture
// passes clean if the region stops at the first release after the
// acquire, and draws exactly one finding from the whole suite here.
func TestEarlyReleaseFixtures(t *testing.T) {
	for _, tc := range []struct {
		fixture   string
		line, col int
		fragment  string
	}{
		{"lockorder_earlyout", 46, 2, "static lock-order cycle: alpha -> beta -> alpha"},
		{"stwsafe_earlyresume", 33, 2, "allocation h.Allocate inside the STW window"},
	} {
		got, err := RunSuite(loadFixture(t, tc.fixture), Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		wantFixtureFinding(t, got, tc.line, tc.col, tc.fragment)
	}
}

// The two window shapes in the clean twin's Cycle: the first closes at
// its plain resume (the allocation between the windows is not in one —
// TestStwsafeFixtureCleanTwin), and the spin on StopTheWorld opens the
// second, so finish is in the STW set.
func TestStwsafeFixtureIdioms(t *testing.T) {
	mod := loadFixture(t, "stwsafe_ok")
	for node := range mod.STWReachable() {
		if node.Decl.Name.Name == "finish" {
			return
		}
	}
	t.Errorf("finish, called in the window the StopTheWorld spin opens, is not STW-reachable")
}

func TestStwsafeFixtureCleanTwin(t *testing.T) {
	got := fixtureFindings(t, StwsafeAnalyzer, "stwsafe_ok")
	if len(got) != 0 {
		t.Fatalf("clean twin has findings: %v", got)
	}
}

func TestStwsafeFixtureReachability(t *testing.T) {
	mod := loadFixture(t, "stwsafe_bad")
	reachable := map[string]bool{}
	for node := range mod.STWReachable() {
		reachable[node.Decl.Name.Name] = true
	}
	if !reachable["refill"] {
		t.Errorf("refill not STW-reachable; got %v", reachable)
	}
	if reachable["Allocate"] {
		t.Errorf("Allocate entered the STW set (the walk must stop at alloc calls)")
	}
}

// ---- atomicguard ----

func TestAtomicguardFixtureFlagsMixedAccess(t *testing.T) {
	got := fixtureFindings(t, AtomicguardAnalyzer, "atomicguard_bad")
	// Only the tracked field's plain read fires; cold is untracked.
	wantFixtureFinding(t, got, 19, 9, "plain access to c.hits", "atomic-excluded")
}

func TestAtomicguardFixtureCleanTwin(t *testing.T) {
	got := fixtureFindings(t, AtomicguardAnalyzer, "atomicguard_ok")
	if len(got) != 0 {
		t.Fatalf("clean twin has findings: %v", got)
	}
}

// ---- barrierflow ----

func TestBarrierflowFixtureFlagsLaunderedStore(t *testing.T) {
	got := fixtureFindings(t, BarrierflowAnalyzer, "barrierflow_bad")
	// The store hides in unexported poke; the message names the
	// exported entry point it is reachable from.
	wantFixtureFinding(t, got, 21, 2,
		"raw heap store h.mem[...]", "reachable from exported fixture.(*Heap).Tweak")
}

func TestBarrierflowFixtureCleanTwin(t *testing.T) {
	got := fixtureFindings(t, BarrierflowAnalyzer, "barrierflow_ok")
	if len(got) != 0 {
		t.Fatalf("clean twin has findings: %v", got)
	}
}

// ---- memory aliases (barrierflow + atomicguard) ----

// A slice of object memory stored in a struct field, and a store
// through that field, are raw-access sites for both analyzers even
// though neither spells `.mem[i]`: Bind (line 24) aliases, Poke (line
// 29) writes through the alias.
func TestMemAliasFixtureFlagsViewAndStoreThroughIt(t *testing.T) {
	for _, tc := range []struct {
		a    *Analyzer
		want map[int]string // line → message fragment
	}{
		{BarrierflowAnalyzer, map[int]string{24: "alias h.mem[...]", 29: "raw heap store v.w[...]"}},
		{AtomicguardAnalyzer, map[int]string{24: "plain access to", 29: "plain access to v.w"}},
	} {
		got := fixtureFindings(t, tc.a, "memalias_bad")
		seen := map[int]bool{}
		for _, f := range got {
			frag, ok := tc.want[f.Pos.Line]
			if !ok || !strings.Contains(f.Message, frag) {
				t.Errorf("%s: unexpected finding %v", tc.a.Name, f)
			}
			seen[f.Pos.Line] = true
		}
		if len(seen) != len(tc.want) {
			t.Errorf("%s: findings on lines %v, want one on each of %v", tc.a.Name, seen, tc.want)
		}
	}
}

func TestMemAliasFixtureCleanTwin(t *testing.T) {
	for _, a := range []*Analyzer{BarrierflowAnalyzer, AtomicguardAnalyzer} {
		if got := fixtureFindings(t, a, "memalias_ok"); len(got) != 0 {
			t.Errorf("%s: clean twin has findings: %v", a.Name, got)
		}
	}
}

// The write-barrier verifier is the one file with no exemption: its
// stores are findings even in an annotated funnel (patch) and even via
// copy, while the same annotated store next door in the collector
// (scavenge.go) stays legal. The module is written out on the fly
// because the rule keys on the real path internal/heap/verify.go.
func TestHeapwriteVerifierStaysReadOnly(t *testing.T) {
	root := t.TempDir()
	writeModule(t, root, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/heap/heap.go": `package heap

type Heap struct{ mem []uint64 }
`,
		"internal/heap/scavenge.go": `package heap

//msvet:heap-writer collector moving an object wholesale
func (h *Heap) move(dst, src uint64) { h.mem[dst] = h.mem[src] }
`,
		"internal/heap/verify.go": `package heap

//msvet:heap-writer an annotation must not buy the verifier a write
func (h *Heap) patch(addr, v uint64) {
	h.mem[addr] = v
	copy(h.mem[addr:], []uint64{v})
}
`,
	})
	mod, err := LoadTyped(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSuite(mod, []*Analyzer{BarrierflowAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2 (the assignment and the copy): %v", len(got), got)
	}
	for _, f := range got {
		if filepath.Base(f.Pos.Filename) != "verify.go" || !strings.Contains(f.Message, "read-only") {
			t.Errorf("unexpected finding %v, want only read-only findings in verify.go", f)
		}
	}
}

// ---- lockorder ----

func TestLockorderFixtureFlagsCycle(t *testing.T) {
	got := fixtureFindings(t, LockorderAnalyzer, "lockorder_bad")
	// Witness position: the alpha acquire in Backward, the edge that
	// closes the cycle.
	wantFixtureFinding(t, got, 39, 2, "static lock-order cycle: alpha -> beta -> alpha")
}

func TestLockorderFixtureCleanTwin(t *testing.T) {
	got := fixtureFindings(t, LockorderAnalyzer, "lockorder_ok")
	if len(got) != 0 {
		t.Fatalf("clean twin has findings: %v", got)
	}
}

func TestLockorderFixtureInterproceduralEdge(t *testing.T) {
	mod := loadFixture(t, "lockorder_ok")
	data := mod.LockGraph().Data()
	if want := []string{"alpha", "beta"}; len(data.Nodes) != 2 ||
		data.Nodes[0] != want[0] || data.Nodes[1] != want[1] {
		t.Fatalf("nodes = %v, want %v", data.Nodes, want)
	}
	edges := data.EdgeStrings()
	if len(edges) != 1 || edges[0] != "alpha -> beta" {
		t.Fatalf("edges = %v, want [alpha -> beta] (discovered through grab)", edges)
	}
}

// The fixture and the real module (what `msvet -lockgraph` emits for
// mscheck's cross-check): two loads, the same bytes.
func TestLockGraphJSONDeterministic(t *testing.T) {
	for _, root := range []string{filepath.Join("testdata", "lockorder_bad"), filepath.Join("..", "..")} {
		var runs [2][]byte
		for i := range runs {
			mod, err := LoadTyped(root)
			if err != nil {
				t.Fatalf("LoadTyped(%s): %v", root, err)
			}
			runs[i] = mod.LockGraph().Data().JSON()
		}
		if !bytes.Equal(runs[0], runs[1]) {
			t.Fatalf("%s: lock graph JSON differs across loads:\n%s\n---\n%s", root, runs[0], runs[1])
		}
		if !bytes.HasSuffix(runs[0], []byte("\n")) {
			t.Errorf("%s: lock graph JSON is not newline-terminated", root)
		}
	}
}

// ---- defined-once ----

// Each way a pairing breaks, at its exact position: the second caller
// at its call (inside a closure: it counts as Skip's), the second
// carrier and the carrier that no longer calls at their directives.
func TestDefinedOnceFixtureFindings(t *testing.T) {
	got := fixtureFindings(t, LockpairAnalyzer, "definedonce_bad")
	if len(got) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(got), got)
	}
	wantFixtureFinding(t, got[:1], 27, 6,
		"fixture.(*Spinlock).TryAcquire is called in fixture.(*Sched).Skip", "fixture.(*Sched).poll alone")
	wantFixtureFinding(t, got[1:2], 38, 1, "second //msvet:defined-once for fixture.step", "fixture.first")
	wantFixtureFinding(t, got[2:], 43, 1, "fixture.Flush carries //msvet:defined-once fixture.drain but never calls it")
}

// ---- annotations ----

func TestAnnotationsCollected(t *testing.T) {
	mod := loadFixture(t, "stwsafe_ok")
	var gotField string
	for _, just := range mod.Ann.StwSafeField {
		gotField = just
	}
	if !strings.Contains(gotField, "collector bookkeeping lock") {
		t.Errorf("stw-safe field justification = %q", gotField)
	}

	mod = loadFixture(t, "atomicguard_ok")
	var gotFunc string
	for _, just := range mod.Ann.AtomicExcluded {
		gotFunc = just
	}
	if !strings.Contains(gotFunc, "after every worker goroutine has joined") {
		t.Errorf("atomic-excluded justification = %q", gotFunc)
	}

	// defined-once: the callee is the first word, the rest is what -v
	// echoes.
	mod = loadFixture(t, "definedonce_ok")
	if d := mod.Ann.DefinedOnce; len(d) != 1 || d[0].Callee != "iter.Pull" || d[0].Carrier.Name() != "newCoro" {
		t.Errorf("defined-once directives = %+v, want iter.Pull carried by newCoro", d)
	}
	if all := mod.Ann.All; len(all) != 1 || all[0].Kind != "defined-once" ||
		all[0].Target != "iter.Pull in fixture.newCoro" || all[0].Justification != "the one coroutine constructor" {
		t.Errorf("-v table = %+v", all)
	}
}

// ---- full suite over the clean twins ----

func TestFullSuiteCleanOnOkFixtures(t *testing.T) {
	for _, fixture := range []string{"stwsafe_ok", "atomicguard_ok", "barrierflow_ok", "memalias_ok", "lockorder_ok", "definedonce_ok"} {
		findings, err := RunSuite(loadFixture(t, fixture), Analyzers())
		if err != nil {
			t.Fatalf("RunSuite(%s): %v", fixture, err)
		}
		if len(findings) != 0 {
			t.Errorf("%s: full suite found %v", fixture, findings)
		}
	}
}
