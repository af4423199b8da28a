package bench

import (
	"math"
	"reflect"
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
	r := &JSONReport{}
	for i, st := range StandardStates() {
		js := JSONState{State: st.Name}
		for j, ms := range [][]int64{{100, 200}, {110, 210}, {120, 240}, {150, 300}}[i] {
			js.Benches = append(js.Benches, JSONBench{Name: MacroBenchmarks[j].Selector, VirtualMS: ms})
		}
		r.Table2 = append(r.Table2, js)
	}
	out := formatTable2(r)
	if !strings.Contains(out, "Baseline BS on multiprocessor") ||
		!strings.Contains(out, "MS with four busy Processes") || !strings.Contains(out, "print def") {
		t.Errorf("table:\n%s", out)
	}
	fig := formatFigure2(r)
	if !strings.Contains(fig, "print class definition                  1.00      1.05      1.20      1.50") ||
		!strings.Contains(fig, "four busy Processes:      worst   50%  avg   50%") {
		t.Errorf("figure:\n%s", fig)
	}
	norm := normalized(r.Table2)
	if norm[0][0] != 1.0 || norm[3][0] != 1.5 {
		t.Errorf("normalized = %v", norm)
	}
	if worst, avg := overhead(norm[2]); math.Abs(worst-0.2) > 1e-9 || math.Abs(avg-0.2) > 1e-9 {
		t.Errorf("idle overhead = %v worst, %v avg; want 0.2, 0.2", worst, avg)
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

// TestStrategyAblationClaims pins the strategies section's rows and
// holds them to the three claims they reproduce: a shared free list and
// a shared method cache each cost more than replication (the free list
// at least twice as much overhead: paper 160% -> 65%), and
// per-processor allocation areas cost less than serialized allocation.
func TestStrategyAblationClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("strategy ablations are slow")
	}
	r, err := RunStrategies()
	if err != nil {
		t.Fatal(err)
	}
	want := []StrategyRow{
		{"baseline BS", []int64{486, 457, 169}},
		{"MS + 4 busy", []int64{670, 680, 228}},
		{"MS + 4 busy, shared locked free list", []int64{1560, 2037, 502}},
		{"MS + 4 busy, shared locked method cache", []int64{733, 820, 321}},
		{"MS + 4 busy, per-processor alloc areas", []int64{574, 588, 213}},
	}
	if !reflect.DeepEqual(r.Rows, want) {
		t.Fatalf("rows = %v, want %v", r.Rows, want)
	}
	busy, freeList, cache, areas := r.WorstOverhead(1), r.WorstOverhead(2), r.WorstOverhead(3), r.WorstOverhead(4)
	if freeList < 2*busy {
		t.Errorf("replicating the free list recovered too little: shared %.0f%%, replicated %.0f%%", freeList*100, busy*100)
	}
	if cache <= busy {
		t.Errorf("shared method cache (%.0f%%) not worse than replicated (%.0f%%)", cache*100, busy*100)
	}
	if areas >= busy {
		t.Errorf("per-processor areas (%.0f%%) not better than serialized allocation (%.0f%%)", areas*100, busy*100)
	}
	if out := r.Format(); !strings.Contains(out, "worst ovh") || !strings.Contains(out, "160% to 65%") {
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
		if r.GCShare() > 0.15 {
			t.Errorf("k=%d: gc share %.1f%% too large", r.Processors, r.GCShare()*100)
		}
	}
	out := formatScavenge(rows)
	if !strings.Contains(out, "gc share") {
		t.Errorf("format:\n%s", out)
	}
}

// TestScavengeGCShareCountsTicks: the share divides scavenge ticks by
// elapsed ticks, so a part of a millisecond counts.
func TestScavengeGCShareCountsTicks(t *testing.T) {
	r := ScavengeRow{ElapsedMS: 800, ScavengeTicks: 18_999}
	if got, want := r.GCShare(), 18_999.0/800_000; got != want {
		t.Errorf("GCShare = %v, want %v (truncating to whole ms gives %v)", got, want, 18.0/800)
	}
	if got := (ScavengeRow{ScavengeTicks: 5}).GCShare(); got != 0 {
		t.Errorf("GCShare with no elapsed time = %v, want 0", got)
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
	if len(rows) != 5 || rows[0].Processors != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	// Overhead must be monotonically non-decreasing with processors.
	for i := 1; i < len(rows); i++ {
		if float64(rows[i].ElapsedMS) < float64(rows[i-1].ElapsedMS)*0.98 {
			t.Fatalf("sweep not monotone: %+v", rows)
		}
	}
	if out := formatSweep(rows); !strings.Contains(out, "normalized") || !strings.Contains(out, " 1.00\n") {
		t.Errorf("format:\n%s", out)
	}
}

// TestContentionReportShape reads the contention view off the checked-in
// report, which the gate holds equal to a fresh run.
func TestContentionReportShape(t *testing.T) {
	r, err := LoadBaseline("../../BENCH_pr10.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table2) != 4 || len(r.Table2[0].Metrics.Locks) == 0 {
		t.Fatalf("report shape: %d states", len(r.Table2))
	}
	// Baseline uses no locks at all.
	for _, l := range r.Table2[0].Metrics.Locks {
		if l.Acquisitions != 0 {
			t.Errorf("baseline acquired lock %s", l.Name)
		}
	}
	// The busy state contends the alloc lock (the paper's suspicion),
	// and its processors spin.
	busy := r.Table2[3].Metrics
	contended, spinPct := false, 0.0
	for _, l := range busy.Locks {
		contended = contended || (l.Name == "alloc" && l.Contentions > 0)
	}
	for _, p := range busy.Procs {
		spinPct += p.SpinPct
	}
	if !contended || spinPct <= 0 {
		t.Errorf("busy state: alloc contended %v, spin share %v", contended, spinPct)
	}
	out := formatContention(r)
	if !strings.Contains(out, "alloc") || !strings.Contains(out, "spin ") {
		t.Errorf("format:\n%s", out)
	}
}

func TestMicroSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("micro suite is slow")
	}
	rows, err := RunMicroSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(MicroBenchmarks) {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.BaselineVirtualMS <= 0 {
			t.Errorf("%s: zero baseline time", r.Name)
		}
		over := float64(r.MSVirtualMS)/float64(r.BaselineVirtualMS) - 1
		if over < -0.05 || over > 0.25 {
			t.Errorf("%s: static overhead %.0f%% outside [-5%%, 25%%]", r.Name, over*100)
		}
	}
	if out := formatMicro(rows); !strings.Contains(out, "testHanoi") {
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
	if len(r.Rows) != 2 || r.Rows[0].Total != r.Rows[1].Total || r.Rows[0].Total == 0 {
		t.Fatalf("rows: %+v", r.Rows)
	}
	if r.Rows[0].VirtualMS <= 0 || r.Rows[1].VirtualMS <= 0 {
		t.Fatalf("times: %+v", r.Rows)
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
// the KiB above the measurement. The primitives read Smalltalk strings
// in place and the display copies into buffers it reuses, so what is
// left is planFor's: a method longer than the 64 bytes every plan slot
// starts with, re-planned after a scavenge while it runs, may be handed
// a spare code buffer too small for it.
func TestMacroPassHostAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own and runs the macros some thirty times slower")
	}
	for _, c := range []struct {
		state          int
		mallocs, bytes uint64 // per pass
	}{
		{0, 2, 1 << 10},
		{3, 4, 1 << 10},
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
