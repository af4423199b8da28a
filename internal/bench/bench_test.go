package bench

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"mst/internal/core"
)

func TestStandardStates(t *testing.T) {
	states := StandardStates()
	if len(states) != 4 {
		t.Fatalf("states = %d", len(states))
	}
	if states[0].Name != "baseline" || states[3].Name != "ms-busy" {
		t.Fatal("state order wrong")
	}
	if states[0].Config().Mode != core.ModeBaseline {
		t.Fatal("baseline state not in baseline mode")
	}
}

func TestMacroBenchmarksRunIndividually(t *testing.T) {
	sys, err := NewBenchSystem(StandardStates()[1]) // MS, no background
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	for _, b := range MacroBenchmarks {
		ms, err := RunMacro(sys, b.Selector)
		if err != nil {
			t.Fatalf("%s: %v (errors: %v)", b.Selector, err, sys.VM.Errors())
		}
		if ms <= 0 {
			t.Errorf("%s took %dms, want > 0", b.Selector, ms)
		}
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	run := func() []int64 {
		ms, err := runState(StandardStates()[1], []string{"printClassHierarchy"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	if a, b := run(), run(); a[0] != b[0] {
		t.Fatalf("benchmark not deterministic: %d vs %d", a[0], b[0])
	}
}

// TestRunStateNamesTheFailure: the runner answers an error naming the
// state and the benchmark, still hands nothing to its observer, and
// shuts the system down.
func TestRunStateNamesTheFailure(t *testing.T) {
	observed := false
	_, err := runState(StandardStates()[1], []string{"printClassHierarchy", "noSuchBenchmark"},
		func(*core.System) error {
			observed = true
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "ms/noSuchBenchmark") {
		t.Fatalf("err = %v, want one naming ms/noSuchBenchmark", err)
	}
	if observed {
		t.Error("the observer ran after a failed benchmark")
	}
}

func TestStateOrderingHolds(t *testing.T) {
	// The paper's fundamental shape on one representative benchmark:
	// baseline <= MS <= MS+idle <= MS+busy.
	var times []int64
	for _, st := range StandardStates() {
		ms, err := runState(st, []string{"printClassHierarchy"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, ms[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("state ordering violated: %v", times)
		}
	}
	// Static overhead small; busy overhead substantial.
	static := float64(times[1])/float64(times[0]) - 1
	busy := float64(times[3])/float64(times[0]) - 1
	if static > 0.20 {
		t.Errorf("MS static overhead %.0f%% exceeds 20%%", static*100)
	}
	if busy < 0.10 {
		t.Errorf("busy overhead %.0f%% suspiciously low", busy*100)
	}
}

func TestTable2Formatting(t *testing.T) {
	tbl := &Table2{
		States:  StandardStates(),
		Benches: []string{"a", "b"},
		Ms: [][]int64{
			{100, 200}, {110, 210}, {120, 240}, {150, 300},
		},
	}
	tbl.Benches = nil
	for _, b := range MacroBenchmarks[:2] {
		tbl.Benches = append(tbl.Benches, b.Paper)
	}
	out := tbl.Format()
	if !strings.Contains(out, "Baseline BS on multiprocessor") ||
		!strings.Contains(out, "MS with four busy Processes") {
		t.Errorf("table:\n%s", out)
	}
	fig := tbl.FormatFigure2()
	if !strings.Contains(fig, "normalized") || !strings.Contains(fig, "#") {
		t.Errorf("figure:\n%s", fig)
	}
	norm := tbl.Normalized()
	if norm[0][0] != 1.0 || norm[3][0] != 1.5 {
		t.Errorf("normalized = %v", norm)
	}
	ov := tbl.Overheads()
	if got := ov["ms-busy"].Worst; got < 0.49 || got > 0.51 {
		t.Errorf("busy worst overhead = %v", got)
	}
}

func TestTable3Static(t *testing.T) {
	out := FormatTable3()
	for _, want := range []string{"Serialization", "Replication", "Reorganization",
		"allocation", "method caches", "active process"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}

func TestFreeListAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	a, err := RunFreeListAblation()
	if err != nil {
		t.Fatal(err)
	}
	locked := a.WorstOverhead(1)
	replicated := a.WorstOverhead(2)
	if locked <= replicated {
		t.Errorf("locked free list (%.0f%%) not worse than replicated (%.0f%%)",
			locked*100, replicated*100)
	}
	if locked < 2*replicated {
		t.Errorf("replication recovered too little: locked %.0f%%, replicated %.0f%% (paper: 160%% -> 65%%)",
			locked*100, replicated*100)
	}
	if out := a.Format(); !strings.Contains(out, "worst ovh") {
		t.Errorf("format:\n%s", out)
	}
}

func TestScavengeExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scavenge sweep is slow")
	}
	rows, err := RunScavengeExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// GC time share must stay small (paper: ~3%).
	for _, r := range rows {
		if r.GCTimeShare > 0.15 {
			t.Errorf("k=%d: gc share %.1f%% too large", r.Processors, r.GCTimeShare*100)
		}
	}
	out := FormatScavenge(rows)
	if !strings.Contains(out, "gc share") {
		t.Errorf("format:\n%s", out)
	}
}

func TestProcessorSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	rows, err := RunProcessorSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0].Normalized != 1.0 {
		t.Fatalf("rows = %+v", rows)
	}
	// Overhead must be monotonically non-decreasing with processors.
	for i := 1; i < len(rows); i++ {
		if rows[i].Normalized < rows[i-1].Normalized-0.02 {
			t.Fatalf("sweep not monotone: %+v", rows)
		}
	}
	if out := FormatSweep(rows); !strings.Contains(out, "normalized") {
		t.Errorf("format:\n%s", out)
	}
}

func TestContentionReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("contention report is slow")
	}
	r, err := RunContentionReport()
	if err != nil {
		t.Fatal(err)
	}
	locks := r.Locks()
	if len(r.States) != 4 || len(r.Metrics) != 4 || len(locks) == 0 {
		t.Fatalf("report shape: states=%v locks=%v", r.States, locks)
	}
	// Baseline uses no locks at all.
	for _, l := range r.Metrics[0].Locks {
		if l.Acquisitions != 0 {
			t.Errorf("baseline acquired lock %s", l.Name)
		}
	}
	// The busy state contends the alloc lock (the paper's suspicion).
	busy := r.Metrics[len(r.Metrics)-1]
	allocIdx := -1
	for i, l := range busy.Locks {
		if l.Name == "alloc" {
			allocIdx = i
		}
	}
	if allocIdx < 0 || busy.Locks[allocIdx].Contentions == 0 {
		t.Error("no alloc-lock contention in the busy state")
	}
	// The busy state's processors spin; percentages must be derived.
	var spinPct float64
	for _, p := range busy.Procs {
		spinPct += p.SpinPct
	}
	if spinPct <= 0 {
		t.Error("busy state reports no per-processor spin share")
	}
	out := r.Format()
	if !strings.Contains(out, "alloc") || !strings.Contains(out, "spin ") {
		t.Errorf("format:\n%s", out)
	}
}

func TestMicroSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("micro suite is slow")
	}
	r, err := RunMicroSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Baseline) != len(MicroBenchmarks) || len(r.MS) != len(MicroBenchmarks) {
		t.Fatalf("result = %+v", r)
	}
	for i, name := range r.Names {
		if r.Baseline[i] <= 0 {
			t.Errorf("%s: zero baseline time", name)
		}
		over := float64(r.MS[i])/float64(r.Baseline[i]) - 1
		if over < -0.05 || over > 0.25 {
			t.Errorf("%s: static overhead %.0f%% outside [-5%%, 25%%]", name, over*100)
		}
	}
	if out := r.Format(); !strings.Contains(out, "testHanoi") {
		t.Errorf("format:\n%s", out)
	}
}

func TestParadigmsAgreeAndComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("paradigm comparison is slow")
	}
	r, err := RunParadigms()
	if err != nil {
		t.Fatal(err)
	}
	if r.SharedTotal != r.QueuedTotal || r.SharedTotal == 0 {
		t.Fatalf("totals: shared=%d queued=%d", r.SharedTotal, r.QueuedTotal)
	}
	if r.SharedMS <= 0 || r.QueuedMS <= 0 {
		t.Fatalf("times: %d / %d", r.SharedMS, r.QueuedMS)
	}
	if out := r.Format(); !strings.Contains(out, "SharedQueue") {
		t.Errorf("format:\n%s", out)
	}
}

// TestMacroPassHostAllocations pins the Go allocations of one warm pass
// of the eight macros, exactly-or-lower, on the baseline and the busy
// state. Each pass's garbage stays resident until the Go collector next
// runs, and with the simulated heap counted as live that is seldom, so a
// workload's peak RSS grows with the passes it runs by about this much
// per pass. Re-measure and lower the pins when a change lowers them.
// The fewest of four passes counts, as in TestBootHostAllocations: Go
// GC timing adds a few allocations to some passes. Bytes are pinned to
// the KiB above the measurement.
func TestMacroPassHostAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and runs the macros some thirty times slower")
	}
	for _, c := range []struct {
		state          int
		mallocs, bytes uint64 // per pass
	}{
		{0, 2877, 56 << 10},
		{3, 29626, 274 << 10},
	} {
		st := StandardStates()[c.state]
		t.Run(st.Name, func(t *testing.T) {
			sys, err := NewBenchSystem(st)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Shutdown()
			pass := func() {
				for _, b := range MacroBenchmarks {
					if _, err := RunMacro(sys, b.Selector); err != nil {
						t.Fatalf("%s: %v", b.Selector, err)
					}
				}
			}
			pass()
			pass()
			mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
			for range 4 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				pass()
				runtime.ReadMemStats(&m1)
				mallocs = min(mallocs, m1.Mallocs-m0.Mallocs)
				bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
			}
			t.Logf("%d mallocs, %d bytes", mallocs, bytes)
			if mallocs > c.mallocs || bytes > c.bytes {
				t.Errorf("%d Go allocations, %d bytes per warm pass; measured %d, %d",
					mallocs, bytes, c.mallocs, c.bytes)
			}
		})
	}
}
