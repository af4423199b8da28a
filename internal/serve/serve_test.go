package serve

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"mst/internal/core"
	"mst/internal/serve/loadgen"
)

// The base checkpoint is shared across tests: booting the kernel plus
// the session protocol takes tens of milliseconds, cloning takes
// microseconds, and sharing is exactly the production configuration.
var baseCP struct {
	once sync.Once
	cp   *core.Checkpoint
	err  error
}

func testCheckpoint(t *testing.T) *core.Checkpoint {
	t.Helper()
	baseCP.once.Do(func() { baseCP.cp, baseCP.err = BootCheckpoint() })
	if baseCP.err != nil {
		t.Fatalf("BootCheckpoint: %v", baseCP.err)
	}
	return baseCP.cp
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Checkpoint = testCheckpoint(t)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// TestSessionProtocol: every tenant boots with the Session instance
// installed and the whole request catalog evaluates cleanly.
func TestSessionProtocol(t *testing.T) {
	s2 := newTestServer(t, Config{Tenants: 1})
	for _, step := range []struct{ src, want string }{
		{"Session bump", "1"},
		{"Session bump", "2"},
		{"Session note: Session hits", "1"},
		{"Session digest", "'2/1'"},
	} {
		got, err := s2.Eval(0, step.src)
		if err != nil {
			t.Fatalf("Eval(%q): %v", step.src, err)
		}
		if got != step.want {
			t.Fatalf("Eval(%q) = %q, want %q", step.src, got, step.want)
		}
	}
	for _, k := range Catalog {
		if _, err := s2.Eval(0, k.Source); err != nil {
			t.Fatalf("catalog %q: %v", k.Name, err)
		}
	}
	if _, err := s2.Eval(5, "1"); err == nil {
		t.Fatal("Eval on missing tenant succeeded")
	}
}

// TestTenantIsolation: one tenant's heap mutations, allocation
// pressure, and garbage collections never leak into a sibling clone.
// The sibling's image bytes must stay bit-identical to a fresh clone
// that ran the same (tiny) request history.
func TestTenantIsolation(t *testing.T) {
	s := newTestServer(t, Config{Tenants: 2})

	// Materialize tenant 1 with a minimal, replayable history.
	if got, _ := s.Eval(1, "Session hits"); got != "0" {
		t.Fatalf("tenant 1 initial hits = %q, want 0", got)
	}

	// Hammer tenant 0: session mutation, allocation churn, a scavenge,
	// and a full mark-compact collection.
	for _, src := range []string{
		"1 to: 200 do: [:i | Session bump]",
		"1 to: 100 do: [:i | Session note: i]",
		"| a | 1 to: 300 do: [:i | a := Array new: 64]. a size",
		"Smalltalk scavenge. Session hits",
		"Smalltalk garbageCollect. Session hits",
	} {
		if _, err := s.Eval(0, src); err != nil {
			t.Fatalf("tenant 0 Eval(%q): %v", src, err)
		}
	}
	if got, _ := s.Eval(0, "Session hits"); got != "200" {
		t.Fatalf("tenant 0 hits = %q, want 200", got)
	}

	// Tenant 1 is untouched by any of it.
	if got, _ := s.Eval(1, "Session hits"); got != "0" {
		t.Fatalf("tenant 1 hits after sibling churn = %q, want 0", got)
	}
	if got, _ := s.Eval(1, "Session digest"); got != "'0/0'" {
		t.Fatalf("tenant 1 digest = %q, want '0/0'", got)
	}

	// Strong form: replay tenant 1's exact request history on a fresh
	// clone of the same checkpoint and compare canonical image bytes.
	// Single-processor sessions are deterministic, so any divergence
	// means sibling state leaked through the clone.
	fresh, err := core.NewFromCheckpoint(1, testCheckpoint(t))
	if err != nil {
		t.Fatalf("NewFromCheckpoint: %v", err)
	}
	defer fresh.Shutdown()
	for _, src := range []string{"Session hits", "Session hits", "Session digest"} {
		if _, err := fresh.Evaluate(src); err != nil {
			t.Fatalf("fresh Evaluate(%q): %v", src, err)
		}
	}
	var a, b bytes.Buffer
	sib, err := s.session(1)
	if err != nil {
		t.Fatalf("session(1): %v", err)
	}
	if err := sib.SaveImage(&a); err != nil {
		t.Fatalf("sibling SaveImage: %v", err)
	}
	if err := fresh.SaveImage(&b); err != nil {
		t.Fatalf("fresh SaveImage: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("sibling image diverged from fresh clone: %d vs %d bytes", a.Len(), b.Len())
	}
}

// TestTenantSurvivesArithmeticFailures: requests whose SmallInteger
// results fall out of range fail at the Smalltalk level; the tenant
// keeps serving and its sibling is untouched.
func TestTenantSurvivesArithmeticFailures(t *testing.T) {
	s := newTestServer(t, Config{Tenants: 2})
	if _, err := s.Eval(1, "Session bump"); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"| m | m := -4611686018427387903 - 1. (m // -1) > 0",
		"1.0e30 truncated",
		"(1.0e300 * 1.0e300) truncated",
	} {
		if got, err := s.Eval(0, src); err == nil {
			t.Errorf("tenant 0 Eval(%q) = %q, want a failure", src, got)
		}
		if _, err := s.Eval(0, "Session bump"); err != nil {
			t.Fatalf("tenant 0 after %q: %v", src, err)
		}
	}
	if got, err := s.Eval(0, "Session hits"); got != "3" || err != nil {
		t.Errorf("tenant 0 hits = %q, %v; want 3", got, err)
	}
	if got, err := s.Eval(1, "Session hits"); got != "1" || err != nil {
		t.Errorf("tenant 1 hits = %q, %v; want 1", got, err)
	}
}

// TestCloneStartsWithEmptyNewSpace: the checkpoint holds no young
// objects, so a clone's scavenges copy only its own requests'
// survivors, and requests that keep nothing tenure nothing. (A
// checkpoint that kept the base image's young set made these 500
// evaluations tenure ~12 K words of it.)
func TestCloneStartsWithEmptyNewSpace(t *testing.T) {
	clone, err := core.NewFromCheckpoint(1, testCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Shutdown()
	if h := clone.Stats().Heap; h.EdenWordsInUse != 0 {
		t.Fatalf("clone starts with %d eden words in use", h.EdenWordsInUse)
	}
	for i := 0; i < 500; i++ {
		if n, err := clone.EvaluateInt("3"); err != nil || n != 3 {
			t.Fatalf("evaluation %d: %d, %v", i, n, err)
		}
	}
	if h := clone.Stats().Heap; h.Scavenges == 0 || h.TenuredWords != 0 {
		t.Fatalf("500 evaluations of 3: %d scavenges tenured %d words, want some scavenges and none",
			h.Scavenges, h.TenuredWords)
	}
}

// overloadSchedule is a schedule hot enough to overflow small queues:
// arrivals come much faster than the ~thousands-of-ticks service
// times.
func overloadSchedule(tenants, requests int) []loadgen.Arrival {
	return loadgen.Schedule(loadgen.Config{
		Seed: 99, Requests: requests, MeanGapTicks: 50,
		Tenants: tenants, Kinds: len(Catalog), HotTenant: -1,
	})
}

// TestAdmissionQueueFull: a saturating open-loop schedule against a
// shallow queue sheds load through the counted rejection path, the
// request accounting balances exactly, and a second identical run
// reproduces the report byte for byte.
func TestAdmissionQueueFull(t *testing.T) {
	cfg := Config{Tenants: 4, Executors: 1, QueueDepth: 2, TenantShare: 2}
	arr := overloadSchedule(4, 300)

	s := newTestServer(t, cfg)
	r, err := s.Run(arr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Errors != 0 {
		t.Fatalf("%d request errors", r.Errors)
	}
	if r.Offered != len(arr) {
		t.Fatalf("offered %d, want %d", r.Offered, len(arr))
	}
	if r.Admitted+r.Rejected != r.Offered {
		t.Fatalf("admitted %d + rejected %d != offered %d", r.Admitted, r.Rejected, r.Offered)
	}
	if r.Completed != r.Admitted {
		t.Fatalf("completed %d != admitted %d", r.Completed, r.Admitted)
	}
	if full := r.Rejected - r.RejectedShare; full == 0 {
		t.Fatal("no queue-full rejections under a saturating schedule")
	}
	if r.Completed == 0 {
		t.Fatal("shed everything: no requests completed")
	}
	var perSum int
	for _, ts := range r.PerTenant {
		perSum += ts.Offered
		if ts.Admitted+ts.Rejected != ts.Offered {
			t.Fatalf("tenant %d: admitted %d + rejected %d != offered %d",
				ts.Tenant, ts.Admitted, ts.Rejected, ts.Offered)
		}
	}
	if perSum != r.Offered {
		t.Fatalf("per-tenant offered sums to %d, want %d", perSum, r.Offered)
	}

	// Determinism: a fresh server serving the same schedule renders the
	// identical report.
	s2 := newTestServer(t, cfg)
	r2, err := s2.Run(arr)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if r.Format() != r2.Format() {
		t.Fatalf("reports differ across identical runs:\n--- first\n%s--- second\n%s", r.Format(), r2.Format())
	}
}

// TestTenantShareFairness: a hot tenant that floods a shared executor
// is clipped by its queue share while its cold neighbours keep
// completing requests.
func TestTenantShareFairness(t *testing.T) {
	arr := loadgen.Schedule(loadgen.Config{
		Seed: 5, Requests: 400, MeanGapTicks: 60,
		Tenants: 4, Kinds: len(Catalog), HotTenant: 0, HotPercent: 85,
	})
	s := newTestServer(t, Config{Tenants: 4, Executors: 1, QueueDepth: 8, TenantShare: 2})
	r, err := s.Run(arr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	hot := r.PerTenant[0]
	if hot.RejectedShare == 0 {
		t.Fatal("hot tenant was never clipped by its queue share")
	}
	for _, ts := range r.PerTenant[1:] {
		if ts.Offered > 0 && ts.Completed == 0 {
			t.Fatalf("cold tenant %d starved: offered %d, completed 0", ts.Tenant, ts.Offered)
		}
	}
	// The share bound caps the hot tenant's completion fraction well
	// below its 85% offered fraction.
	if hot.Completed*2 > r.Completed {
		t.Fatalf("hot tenant completed %d of %d despite share bound", hot.Completed, r.Completed)
	}
}

// TestDetReportStable: the deterministic serve path is bit-stable —
// and its report carries the gateable latency columns.
func TestDetReportStable(t *testing.T) {
	arr := loadgen.Schedule(loadgen.Config{
		Seed: 1234, Requests: 200, MeanGapTicks: 2000,
		Tenants: 4, Kinds: len(Catalog), HotTenant: -1,
	})
	cfg := Config{Tenants: 4, Executors: 2}
	a, err := newTestServer(t, cfg).Run(arr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := newTestServer(t, cfg).Run(arr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Format() != b.Format() {
		t.Fatalf("det reports differ:\n--- a\n%s--- b\n%s", a.Format(), b.Format())
	}
	txt := a.Format()
	for _, tok := range []string{"p99", "p95", "p50", "latency", "per tenant"} {
		if !strings.Contains(txt, tok) {
			t.Fatalf("report missing %q:\n%s", tok, txt)
		}
	}
	if a.Latency.Count == 0 || a.Latency.P99 < a.Latency.P50 {
		t.Fatalf("implausible latency snapshot: %+v", a.Latency)
	}
	if a.Latency.Max < a.Latency.P99 {
		t.Fatalf("latency max %d below p99 %d", a.Latency.Max, a.Latency.P99)
	}
	// Throughput is derived from the totals report() sums over the
	// tenants: set before the sum, it would read 0.
	if want := float64(a.Completed) * 1e6 / float64(a.MakespanTicks); a.ThroughputRPS != want || want == 0 {
		t.Fatalf("ThroughputRPS = %v, want %v (completed %d, makespan %d)",
			a.ThroughputRPS, want, a.Completed, a.MakespanTicks)
	}
}

// TestParallelMatchesDet: executors own disjoint tenant sets, so the
// parallel host mode must reproduce the deterministic mode's virtual
// results exactly — the early-scheduling property the conflict-class
// design buys.
func TestParallelMatchesDet(t *testing.T) {
	arr := loadgen.Schedule(loadgen.Config{
		Seed: 77, Requests: 240, MeanGapTicks: 400,
		Tenants: 6, Kinds: len(Catalog), HotTenant: -1,
	})
	det, err := newTestServer(t, Config{Tenants: 6, Executors: 3}).Run(arr)
	if err != nil {
		t.Fatalf("det Run: %v", err)
	}
	par, err := newTestServer(t, Config{Tenants: 6, Executors: 3, Parallel: true}).Run(arr)
	if err != nil {
		t.Fatalf("parallel Run: %v", err)
	}
	// Reports differ only in the mode banner.
	a := strings.Replace(det.Format(), "(det)", "(parallel)", 1)
	if a != par.Format() {
		t.Fatalf("parallel diverged from det:\n--- det\n%s--- parallel\n%s", det.Format(), par.Format())
	}
}

// TestSessionsPersistAcrossRuns: tenant state carries across Run
// calls (a second identical schedule sees warmer sessions, so hit
// counters keep growing).
func TestSessionsPersistAcrossRuns(t *testing.T) {
	arr := loadgen.Schedule(loadgen.Config{
		Seed: 3, Requests: 60, MeanGapTicks: 3000,
		Tenants: 2, Kinds: 1, HotTenant: -1, // kind 0: Session bump
	})
	s := newTestServer(t, Config{Tenants: 2})
	if _, err := s.Run(arr); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	h0, _ := s.Eval(0, "Session hits")
	if _, err := s.Run(arr); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	h1, _ := s.Eval(0, "Session hits")
	if h0 == "0" || h1 <= h0 {
		t.Fatalf("hits did not accumulate across runs: %q then %q", h0, h1)
	}
}

// TestWriteTrace: with the flight recorder on, the exported trace
// carries the serve track and per-tenant threads.
func TestWriteTrace(t *testing.T) {
	arr := overloadSchedule(4, 120)
	s := newTestServer(t, Config{Tenants: 4, Executors: 2, QueueDepth: 2, TenantShare: 1, TraceEvents: 4096})
	r, err := s.Run(arr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	for _, tok := range []string{"serve", "tenant 0", "reject"} {
		if !strings.Contains(buf.String(), tok) {
			t.Fatalf("trace missing %q", tok)
		}
	}
	// Tracing off: WriteTrace reports it rather than panicking.
	r2, err := newTestServer(t, Config{Tenants: 1}).Run(nil)
	if err != nil {
		t.Fatalf("empty Run: %v", err)
	}
	if err := r2.WriteTrace(&buf); err == nil {
		t.Fatal("WriteTrace with tracing off succeeded")
	}
}
