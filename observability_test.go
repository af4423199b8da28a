package mst_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mst/internal/bench"
	"mst/internal/core"
	"mst/internal/trace"
)

// End-to-end observability tests: run a real benchmark with the flight
// recorder and profiler attached and check the whole pipeline — event
// stream, Perfetto export, selector profile, metrics registry.

// observedBusySystem boots the ms-busy standard state with the flight
// recorder on and the observers observe attaches, and runs one macro
// benchmark.
func observedBusySystem(t *testing.T, observe func(*core.Config)) *core.System {
	t.Helper()
	states := bench.StandardStates()
	st := states[len(states)-1] // ms-busy
	base := st.Config
	st.Config = func() core.Config {
		cfg := base()
		cfg.TraceEvents = trace.DefaultRingSize
		observe(&cfg)
		return cfg
	}
	sys, err := bench.NewBenchSystem(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bench.RunMacro(sys, "printClassHierarchy"); err != nil {
		sys.Shutdown()
		t.Fatal(err)
	}
	return sys
}

// profiled attaches the selector profiler.
func profiled(cfg *core.Config) { cfg.Profile = true }

// TestGCReportRenders: the observed run behind `mst -busy 4 -trace
// -profile -allocprofile -gcreport -parscavenge` renders every report,
// and the GC rollup carries every section end-to-end: the collector header,
// distributions with percentiles, lock waits, the critical-path table
// (parallel scavenger on), the allocation-site table, and the age
// census.
func TestGCReportRenders(t *testing.T) {
	sys := observedBusySystem(t, func(cfg *core.Config) {
		cfg.Profile = true
		cfg.AllocProfile = true
		cfg.Histograms = true
		cfg.ParScavenge = true
	})
	defer sys.Shutdown()

	var b strings.Builder
	for _, report := range []func() (string, error){
		func() (string, error) { return sys.ProfileReport(25) },
		func() (string, error) { return sys.AllocProfileReport(10) },
		sys.GCReport,
	} {
		rep, err := report()
		if err != nil || rep == "" {
			t.Fatalf("a report is missing (err %v)", err)
		}
		b.WriteString(rep)
	}
	tm := sys.Metrics().Trace
	b.WriteString(tm.String())
	rep := b.String()
	for _, want := range []string{
		"flight recorder", "GC report\nscavenges: ", "latency distributions",
		"scavenge.pause", "p50", "p99", "lock acquire-wait",
		"parallel scavenge critical path", "allocation sites", "object demographics",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("observed report missing %q:\n%s", want, rep)
		}
	}
	if tm.Events == 0 {
		t.Error("flight recorder emitted no events")
	}
	var buf bytes.Buffer
	if err := sys.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Errorf("trace holds no events (%d bytes, err %v)", buf.Len(), err)
	}
}

func TestTraceEventOrderingPerTrack(t *testing.T) {
	sys := observedBusySystem(t, profiled)
	defer sys.Shutdown()

	events := sys.VM.M.Recorder().Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	// Virtual time never runs backwards on any processor's track.
	last := map[int32]int64{}
	kinds := map[trace.Kind]bool{}
	for i, ev := range events {
		kinds[ev.Kind] = true
		if prev, ok := last[ev.Proc]; ok && ev.At < prev {
			t.Fatalf("event %d (%v) on proc %d at t=%d, after t=%d",
				i, ev.Kind, ev.Proc, ev.At, prev)
		}
		last[ev.Proc] = ev.At
	}
	// A busy run must exercise the scheduler, the locks, the sends,
	// and the scavenger. Process switches all happen at spawn time, so
	// they survive in the ring only when nothing was overwritten.
	must := []trace.Kind{trace.KQuantumStart, trace.KQuantumEnd,
		trace.KLockAcquire, trace.KLockRelease, trace.KSend,
		trace.KScavengeBegin, trace.KScavengeEnd}
	if sys.VM.M.Recorder().Dropped() == 0 {
		must = append(must, trace.KProcessSwitch)
	}
	for _, k := range must {
		if !kinds[k] {
			t.Errorf("busy run emitted no %v events", k)
		}
	}
}

func TestPerfettoExportWellFormed(t *testing.T) {
	sys := observedBusySystem(t, profiled)
	defer sys.Shutdown()

	var buf bytes.Buffer
	if err := sys.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  *int64         `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	numProcs := sys.Metrics().Machine.NumProcs
	procTracks := map[int]bool{}      // tids named on pid 1
	lockTracks := map[int]bool{}      // tids named on pid 2
	gcTracks := map[int]bool{}        // tids named on pid 3
	slicesOn := map[int]bool{}        // pids with at least one complete slice
	counterTracks := map[string]int{} // counter series name -> samples
	for _, ev := range doc.TraceEvents {
		if ev.Name == "thread_name" && ev.Ph == "M" {
			switch ev.Pid {
			case 1:
				procTracks[ev.Tid] = true
			case 2:
				lockTracks[ev.Tid] = true
			case 3:
				gcTracks[ev.Tid] = true
			}
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("complete slice %q without non-negative dur", ev.Name)
			}
			slicesOn[ev.Pid] = true
		case "C":
			if ev.Args == nil || ev.Args["value"] == nil {
				t.Fatalf("counter event %q without a value", ev.Name)
			}
			counterTracks[ev.Name]++
		case "M", "i":
		default:
			t.Fatalf("unexpected phase %q on %q", ev.Ph, ev.Name)
		}
	}
	// The heap emits occupancy and pause counter samples at every GC
	// boundary; a busy run scavenges, so the tracks must be populated.
	for _, name := range []string{"eden words", "old words", "scavenge pause ticks"} {
		if counterTracks[name] == 0 {
			t.Errorf("no %q counter samples in the export", name)
		}
	}
	for i := 0; i < numProcs; i++ {
		if !procTracks[i] {
			t.Errorf("no named track for processor %d", i)
		}
	}
	if len(lockTracks) == 0 {
		t.Error("no lock tracks")
	}
	if len(gcTracks) == 0 {
		t.Error("no gc track")
	}
	for pid := 1; pid <= 3; pid++ {
		if !slicesOn[pid] {
			t.Errorf("pid %d has no slices", pid)
		}
	}
}

func TestProfilerCoverage(t *testing.T) {
	sys := observedBusySystem(t, profiled)
	defer sys.Shutdown()

	sys.VM.ProfilerFlush()
	pf := sys.VM.Profiler()
	if pf == nil {
		t.Fatal("profiler not enabled")
	}
	if cov := pf.Coverage(); cov < 0.95 {
		t.Errorf("profiler attributes %.1f%% of busy time to named selectors, want >= 95%%\n%s",
			cov*100, pf.Report(20))
	}
	rep, err := sys.ProfileReport(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flat%", "cum%", "coverage:"} {
		if !bytes.Contains([]byte(rep), []byte(want)) {
			t.Errorf("profile report missing %q:\n%s", want, rep)
		}
	}
}

// observedJITSystem boots the template tier in its designed
// configuration (MS+, inline caches on) with both observers attached
// and runs two send-heavy macros — enough to cross the compile
// threshold everywhere and retire at least one send site to
// megamorphic, which forces a deopt.
func observedJITSystem(t *testing.T) *core.System {
	t.Helper()
	st := bench.State{
		Name: "ms-plus-jit",
		Config: func() core.Config {
			cfg := core.MSPlusConfig()
			cfg.Processors = 1
			cfg.JIT = true
			cfg.TraceEvents = trace.DefaultRingSize
			cfg.Profile = true
			return cfg
		},
	}
	sys, err := bench.NewBenchSystem(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"printClassHierarchy", "findAllImplementors"} {
		if _, err := bench.RunMacro(sys, w); err != nil {
			sys.Shutdown()
			t.Fatal(err)
		}
	}
	return sys
}

func TestJITObservability(t *testing.T) {
	sys := observedJITSystem(t)
	defer sys.Shutdown()

	// The tier ran: compile and deopt counters moved, and every compile
	// and deopt left a flight-recorder event on the jit track.
	st := sys.Stats().Interp
	if st.JITCompiles == 0 || st.JITBytecodes == 0 {
		t.Fatalf("tier did not run: compiles=%d bytecodes=%d", st.JITCompiles, st.JITBytecodes)
	}
	if st.JITDeopts == 0 {
		t.Fatalf("no deopt: the workload's megamorphic sites should retire at least one compiled method")
	}
	var compiles, deopts int
	for _, ev := range sys.VM.M.Recorder().Events() {
		switch ev.Kind {
		case trace.KJITCompile:
			compiles++
			if ev.Str == "" {
				t.Error("KJITCompile event without a selector")
			}
		case trace.KJITDeopt:
			deopts++
			if ev.Str == "" {
				t.Error("KJITDeopt event without a reason name")
			}
		}
	}
	if compiles == 0 {
		t.Error("no KJITCompile events in the ring")
	}
	if deopts == 0 {
		t.Error("no KJITDeopt events in the ring")
	}

	// The Perfetto export carries them as instants on the jit track
	// (pid 4), which is named.
	var buf bytes.Buffer
	if err := sys.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	jitNamed, jitInstants := false, 0
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 4 {
			continue
		}
		if ev.Ph == "M" && ev.Name == "process_name" || ev.Ph == "M" && ev.Name == "thread_name" {
			jitNamed = true
		}
		if ev.Ph == "i" {
			jitInstants++
		}
	}
	if !jitNamed {
		t.Error("jit track (pid 4) is not named in the Perfetto export")
	}
	if jitInstants == 0 {
		t.Error("no jit instants (compiles/deopts) in the Perfetto export")
	}

	// The profiler attributes time to the compiled tier.
	sys.VM.ProfilerFlush()
	pf := sys.VM.Profiler()
	if pf == nil {
		t.Fatal("profiler not enabled")
	}
	interpreted, compiled := pf.TierBreakdown()
	if compiled == 0 {
		t.Errorf("profiler attributes no time to the compiled tier (interpreted=%d)", interpreted)
	}
	if interpreted == 0 {
		t.Errorf("profiler attributes no time to the interpreted tier (compiled=%d)", compiled)
	}
}

func TestMetricsRegistryMatchesStats(t *testing.T) {
	sys := observedBusySystem(t, profiled)
	defer sys.Shutdown()

	m := sys.Metrics()
	if m.SchemaVersion != core.MetricsSchemaVersion {
		t.Errorf("schema version = %d, want %d", m.SchemaVersion, core.MetricsSchemaVersion)
	}
	if m.Machine.VirtualTimeTicks <= 0 ||
		m.Machine.VirtualTimeMS != m.Machine.VirtualTimeTicks/1000 {
		t.Errorf("virtual time: %d ticks / %d ms", m.Machine.VirtualTimeTicks, m.Machine.VirtualTimeMS)
	}
	if len(m.Procs) != m.Machine.NumProcs {
		t.Fatalf("procs: %d entries for %d processors", len(m.Procs), m.Machine.NumProcs)
	}
	for _, p := range m.Procs {
		if p.Busy+p.Spin+p.Stall+p.Idle > p.Clock {
			t.Errorf("proc %d accounting exceeds clock: busy=%d spin=%d stall=%d idle=%d clock=%d",
				p.Proc, p.Busy, p.Spin, p.Stall, p.Idle, p.Clock)
		}
	}
	if m.Trace.Events == 0 {
		t.Error("trace metrics report no events from an observed run")
	}
}
