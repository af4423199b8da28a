package mst_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"mst/internal/bench"
	"mst/internal/core"
	"mst/internal/trace"
)

// Golden determinism test: the default configurations (the paper's
// four system states) must produce bit-identical virtual times and
// interpreter counters across commits. The inline-cache machinery and
// the host-side dispatch optimizations are required to leave these
// numbers untouched — anything that shifts them changed the modeled
// virtual machine, not just the host implementation, and needs the
// golden values re-derived deliberately.
//
// Values are from a fresh boot, first run of each benchmark.
var goldenVMS = map[string]map[string]int64{
	"baseline": {"printClassHierarchy": 486, "decompileClass": 175},
	"ms":       {"printClassHierarchy": 503, "decompileClass": 182},
	"ms-idle":  {"printClassHierarchy": 586, "decompileClass": 203},
	"ms-busy":  {"printClassHierarchy": 670, "decompileClass": 237},
}

var goldenStats = map[string]struct {
	sends, hits, misses, dict uint64
}{
	"baseline": {15234, 14259, 975, 3944},
	"ms":       {15234, 14259, 975, 3944},
	"ms-idle":  {15246, 14222, 1024, 3934},
	"ms-busy":  {117828, 114769, 3059, 10428},
}

var goldenMacros = []string{"printClassHierarchy", "decompileClass"}

// goldenOutcome is what the invariance tests compare: the virtual
// times of the two golden macros and the complete Stats snapshot.
type goldenOutcome struct {
	vms   []int64
	stats core.Stats
}

// runGolden boots st with attach applied to its config, runs the two
// golden macros, and hands the still-live system to inspect. A nil
// attach and inspect give the plain run.
func runGolden(t *testing.T, st bench.State, attach func(*core.Config),
	inspect func(*testing.T, *core.System, goldenOutcome)) goldenOutcome {
	if attach != nil {
		base := st.Config
		st.Config = func() core.Config {
			cfg := base()
			attach(&cfg)
			return cfg
		}
	}
	sys, err := bench.NewBenchSystem(st)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	var o goldenOutcome
	for _, b := range goldenMacros {
		vms, err := bench.RunMacro(sys, b)
		if err != nil {
			t.Fatal(err)
		}
		o.vms = append(o.vms, vms)
	}
	o.stats = sys.Stats()
	if inspect != nil {
		inspect(t, sys, o)
	}
	return o
}

// eachState runs body once per standard state, as a subtest.
func eachState(t *testing.T, body func(t *testing.T, st bench.State)) {
	for _, st := range bench.StandardStates() {
		t.Run(st.Name, func(t *testing.T) { body(t, st) })
	}
}

// wantGoldenVMS checks a run's virtual times against the golden table.
func wantGoldenVMS(t *testing.T, state, what string, o goldenOutcome) {
	t.Helper()
	for i, b := range goldenMacros {
		if want := goldenVMS[state][b]; o.vms[i] != want {
			t.Errorf("%s %s%s: vms = %d, want golden %d", state, b, what, o.vms[i], want)
		}
	}
}

// explicitOffMatchesDefault runs st as configured and again with off
// applied — an explicit "feature off" — and requires both to hit the
// golden virtual times and to agree on the complete outcome. It returns
// the default run for the caller's own feature-is-off checks.
func explicitOffMatchesDefault(t *testing.T, st bench.State, field string, off func(*core.Config)) goldenOutcome {
	implicit, explicit := runGolden(t, st, nil, nil), runGolden(t, st, off, nil)
	wantGoldenVMS(t, st.Name, "", implicit)
	wantGoldenVMS(t, st.Name, "", explicit)
	if !reflect.DeepEqual(implicit, explicit) {
		t.Errorf("%s: explicit %s=false diverges from the default:\ndefault:  %+v\nexplicit: %+v",
			st.Name, field, implicit, explicit)
	}
	return implicit
}

// plainGolden holds each standard state's outcome with no observer
// attached, run once and shared by every invariance test.
var plainGolden = map[string]goldenOutcome{}

// observerInvariance is the observers' whole contract: recording
// happens host-side only, so attaching them must leave the golden
// virtual times and the complete Stats snapshot bit-identical to the
// plain run in every standard state. inspect checks that the attached
// observers actually saw the run.
func observerInvariance(t *testing.T, what string, attach func(*core.Config),
	inspect func(*testing.T, *core.System, goldenOutcome)) {
	eachState(t, func(t *testing.T, st bench.State) {
		plain, ok := plainGolden[st.Name]
		if !ok {
			plain = runGolden(t, st, nil, nil)
			plainGolden[st.Name] = plain
		}
		observed := runGolden(t, st, attach, inspect)
		wantGoldenVMS(t, st.Name, " with "+what+" on", observed)
		if !reflect.DeepEqual(plain.vms, observed.vms) {
			t.Errorf("%s: virtual times diverge with %s on: %v vs %v",
				st.Name, what, plain.vms, observed.vms)
		}
		if !reflect.DeepEqual(plain.stats, observed.stats) {
			t.Errorf("%s: stats diverge with %s on:\nplain:    %+v\nobserved: %+v",
				st.Name, what, plain.stats, observed.stats)
		}
	})
}

func inspectTrace(t *testing.T, sys *core.System, _ goldenOutcome) {
	if sys.Metrics().Trace.Events == 0 {
		t.Error("observed run recorded no events")
	}
	if rep, err := sys.ProfileReport(10); err != nil || rep == "" {
		t.Errorf("selector profile unavailable: %v", err)
	}
}

func inspectHistograms(t *testing.T, sys *core.System, o goldenOutcome) {
	lat := sys.Metrics().Latency
	if lat == nil {
		t.Fatal("observed run has no latency section")
	}
	if lat.Dispatch.Count == 0 {
		t.Error("observed run recorded no dispatch latencies")
	}
	if o.stats.Heap.Scavenges > 0 && lat.ScavengePause.Count == 0 {
		t.Error("scavenges ran but recorded no pause samples")
	}
	if rep, err := sys.AllocProfileReport(10); err != nil || rep == "" {
		t.Errorf("allocation profile unavailable: %v", err)
	}
}

func inspectSanitizer(t *testing.T, sys *core.System, _ goldenOutcome) {
	san := sys.Sanitizer()
	if san == nil {
		t.Fatal("sanitizer did not attach")
	}
	if !san.Clean() {
		t.Errorf("sanitizer found violations on the real workload:\n%s", san.Report())
	}
	if cs := san.Stats(); cs.AccessChecks == 0 || cs.BarrierScans == 0 {
		t.Errorf("sanitizer did no checking: %+v", cs)
	}
}

// TestGoldenTraceInvariance: attaching the flight recorder and the
// selector profiler must not move virtual time or any counter.
func TestGoldenTraceInvariance(t *testing.T) {
	observerInvariance(t, "tracing", func(cfg *core.Config) {
		cfg.TraceEvents = trace.DefaultRingSize
		cfg.Profile = true
	}, inspectTrace)
}

// goldenTraceDigest pins each standard state's flight-recorder stream:
// every event from boot through the two golden macros, in emission
// order (the ring is sized to drop none), and the count ever emitted.
// The values are from the commit before idle quanta ran in place
// (PR 16), so they hold the event order across that scheduler change;
// re-derive them only for a change that means to move a virtual event.
var goldenTraceDigest = map[string]string{
	"baseline": "d943187f6be99a99925a36a05af9aa67200b657731193d607e2c84d851e61a4f",
	"ms":       "8df01f1daeee85cd0c814fb75f7c0e57af67d08f5aada9c4518e5eb20dd57bba",
	"ms-idle":  "015e66ac4c6c6cdba50d8bb408dd71f653d9503b9bfe0095125efac6e5924cf2",
	"ms-busy":  "ceea4c8587eb13bf1673bfb91f12c85e2441a30809e2451b7eedcdb3805f2a5b",
}

// TestGoldenTraceDigest: the virtual results are compared traced against
// untraced above; this holds what those comparisons cannot see — which
// events are emitted, for which processor, at what virtual time and in
// what order.
func TestGoldenTraceDigest(t *testing.T) {
	eachState(t, func(t *testing.T, st bench.State) {
		runGolden(t, st, func(cfg *core.Config) { cfg.TraceEvents = 1 << 19 },
			func(t *testing.T, sys *core.System, _ goldenOutcome) {
				rec := sys.VM.M.Recorder()
				h := sha256.New()
				for _, e := range rec.Events() {
					fmt.Fprintf(h, "%d %d %d %d %d %s\n", e.Kind, e.Proc, e.At, e.Arg1, e.Arg2, e.Str)
				}
				fmt.Fprintf(h, "total %d\n", rec.Total())
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenTraceDigest[st.Name] {
					t.Errorf("%s: trace digest %s over %d events, want %s",
						st.Name, got, rec.Total(), goldenTraceDigest[st.Name])
				}
			})
	})
}

// TestGoldenHistogramInvariance: the latency histograms (pause and
// phase ticks, dispatch latency, per-lock waits) and the allocation-site
// profiler must be as invisible as the flight recorder.
func TestGoldenHistogramInvariance(t *testing.T) {
	observerInvariance(t, "histograms", func(cfg *core.Config) {
		cfg.Histograms = true
		cfg.AllocProfile = true
	}, inspectHistograms)
}

// TestGoldenSanitizeInvariance: the mscheck invariant sanitizer must be
// as invisible as the flight recorder, and the real workload must be
// violation-free in every standard state (the Table 3 disciplines
// actually hold).
func TestGoldenSanitizeInvariance(t *testing.T) {
	observerInvariance(t, "the sanitizer", func(cfg *core.Config) { cfg.Sanitize = true }, inspectSanitizer)
}

// TestGoldenAllObserversInvariance: all five observers attached
// together — every hook site live at once — must still reproduce the
// golden virtual times and the plain Stats snapshot, with a clean
// sanitizer and output from each observer.
func TestGoldenAllObserversInvariance(t *testing.T) {
	observerInvariance(t, "every observer", func(cfg *core.Config) {
		cfg.TraceEvents = trace.DefaultRingSize
		cfg.Profile = true
		cfg.Histograms = true
		cfg.AllocProfile = true
		cfg.Sanitize = true
	}, func(t *testing.T, sys *core.System, o goldenOutcome) {
		inspectTrace(t, sys, o)
		inspectHistograms(t, sys, o)
		inspectSanitizer(t, sys, o)
	})
}

// TestGoldenParScavengeOff: with the parallel scavenger compiled in
// but disabled (the default), every standard state must reproduce the
// golden virtual times bit-for-bit while still scavenging through the
// restructured Scavenge path — proving the ParScavenge branch and the
// serial extraction left the modeled machine untouched. An explicit
// ParScavenge=false config must match the implicit default exactly.
func TestGoldenParScavengeOff(t *testing.T) {
	eachState(t, func(t *testing.T, st bench.State) {
		hs := explicitOffMatchesDefault(t, st, "ParScavenge",
			func(cfg *core.Config) { cfg.ParScavenge = false }).stats.Heap
		if hs.Scavenges == 0 {
			t.Errorf("%s: no scavenges ran; the serial path went unexercised", st.Name)
		}
		if hs.ParScavenges != 0 {
			t.Errorf("%s: parallel scavenges ran in a default config (%d); the feature must be off",
				st.Name, hs.ParScavenges)
		}
	})
}

// TestGoldenConcMarkOff: with the SATB concurrent marker compiled in
// but disabled (the default), every standard state must reproduce the
// golden virtual times bit-for-bit — the deletion-barrier hook in the
// store funnels and the restructured full-collection entry are required
// to be invisible when the feature is off — and an explicit
// ConcMark=false config must match the implicit default exactly.
func TestGoldenConcMarkOff(t *testing.T) {
	eachState(t, func(t *testing.T, st bench.State) {
		hs := explicitOffMatchesDefault(t, st, "ConcMark",
			func(cfg *core.Config) { cfg.ConcMark = false }).stats.Heap
		if hs.ConcMarkCycles != 0 || hs.ConcMarkSlices != 0 || hs.ConcMarkShaded != 0 {
			t.Errorf("%s: concurrent marking ran in a default config (cycles=%d slices=%d shades=%d); the feature must be off",
				st.Name, hs.ConcMarkCycles, hs.ConcMarkSlices, hs.ConcMarkShaded)
		}
	})
}

// TestGoldenConcMarkDeterminism: with the concurrent marker ON under
// the deterministic scheduler, two identical runs of every standard
// state must agree bit-for-bit — virtual times and the complete Stats
// snapshot, concmark counters included. The mark slices interleave with
// the mutator at safepoints only, so the whole cycle is replayable.
func TestGoldenConcMarkDeterminism(t *testing.T) {
	eachState(t, func(t *testing.T, st bench.State) {
		on := func(cfg *core.Config) { cfg.ConcMark = true }
		first, second := runGolden(t, st, on, nil), runGolden(t, st, on, nil)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: two -concmark runs diverge:\nfirst:  %+v\nsecond: %+v",
				st.Name, first, second)
		}
	})
}

func TestGoldenDeterminism(t *testing.T) {
	eachState(t, func(t *testing.T, st bench.State) {
		o := runGolden(t, st, nil, nil)
		wantGoldenVMS(t, st.Name, "", o)
		stats, want := o.stats.Interp, goldenStats[st.Name]
		if stats.Sends != want.sends || stats.CacheHits != want.hits ||
			stats.CacheMisses != want.misses || stats.DictProbes != want.dict {
			t.Errorf("%s counters: sends=%d hits=%d misses=%d dict=%d, want %d/%d/%d/%d",
				st.Name, stats.Sends, stats.CacheHits, stats.CacheMisses, stats.DictProbes,
				want.sends, want.hits, want.misses, want.dict)
		}
		if stats.ICHits != 0 || stats.ICMisses != 0 || stats.ICFills != 0 {
			t.Errorf("%s: inline caches active in a default config (hits=%d misses=%d fills=%d); they must be off",
				st.Name, stats.ICHits, stats.ICMisses, stats.ICFills)
		}
	})
}

// TestGoldenJITOff: with the msjit template tier compiled in but
// disabled (the default), every standard state must reproduce the
// golden virtual times and counters bit-for-bit, and an explicit
// JIT=false config must match the implicit default exactly — proving
// the tier's hooks (loadContext, send-path split, flush points) left
// the interpreted machine untouched.
func TestGoldenJITOff(t *testing.T) {
	eachState(t, func(t *testing.T, st bench.State) {
		is := explicitOffMatchesDefault(t, st, "JIT",
			func(cfg *core.Config) { cfg.JIT = false }).stats.Interp
		if is.JITCompiles != 0 || is.JITBytecodes != 0 {
			t.Errorf("%s: template tier active in a default config (compiles=%d bytecodes=%d); it must be off",
				st.Name, is.JITCompiles, is.JITBytecodes)
		}
	})
}

// TestGoldenJITOn: the tier's whole contract in one test — with JIT on,
// every standard state must still produce the golden virtual times and
// a Stats snapshot bit-identical to the interpreted run except for the
// tier's own three counters (which must show the compiler actually
// ran). Compiled bytecodes charge through the same cost table at the
// same points, so nothing else may move.
func TestGoldenJITOn(t *testing.T) {
	eachState(t, func(t *testing.T, st bench.State) {
		off := runGolden(t, st, nil, nil)
		on := runGolden(t, st, func(cfg *core.Config) { cfg.JIT = true }, nil)
		wantGoldenVMS(t, st.Name, " (jit=false)", off)
		wantGoldenVMS(t, st.Name, " (jit=true)", on)
		if on.stats.Interp.JITCompiles == 0 || on.stats.Interp.JITBytecodes == 0 {
			t.Errorf("%s: JIT run compiled nothing (compiles=%d bytecodes=%d)",
				st.Name, on.stats.Interp.JITCompiles, on.stats.Interp.JITBytecodes)
		}
		neutral := on
		neutral.stats.Interp.JITCompiles = 0
		neutral.stats.Interp.JITDeopts = 0
		neutral.stats.Interp.JITBytecodes = 0
		if !reflect.DeepEqual(off, neutral) {
			t.Errorf("%s: JIT on shifts virtual behavior:\noff: vms=%v stats=%+v\non:  vms=%v stats=%+v",
				st.Name, off.vms, off.stats, on.vms, on.stats)
		}
	})
}
