package core

import (
	"math"
	"runtime"
	"testing"

	"mst/internal/firefly"
	"mst/internal/interp"
)

func TestMetricsDerive(t *testing.T) {
	st := Stats{
		Procs: []ProcStats{
			{Proc: 0, ProcStats: firefly.ProcStats{Busy: 50, Spin: 25, Stall: 25, Clock: 100}},
			{Proc: 1}, // a zero clock
		},
		Locks: []LockStats{
			{LockStats: firefly.LockStats{Name: "alloc", Acquisitions: 200, Contentions: 50}},
			{LockStats: firefly.LockStats{Name: "display"}}, // never acquired
		},
		Interp: InterpStats{Stats: interp.Stats{CacheHits: 90, CacheMisses: 10}}, // ICs off
	}
	st.derive()
	if p := st.Procs[0]; p.SpinPct != 25 || p.StallPct != 25 || p.BusyPct != 50 {
		t.Errorf("proc pct = %+v", p)
	}
	if st.Locks[0].ContentionPct != 25 {
		t.Errorf("ContentionPct = %f", st.Locks[0].ContentionPct)
	}
	if st.Interp.CacheHitPct != 90 {
		t.Errorf("CacheHitPct = %f", st.Interp.CacheHitPct)
	}
	for _, c := range []struct {
		what string
		pct  float64
	}{
		{"zero clock: busy", st.Procs[1].BusyPct},
		{"zero clock: spin", st.Procs[1].SpinPct},
		{"zero clock: stall", st.Procs[1].StallPct},
		{"lock never acquired", st.Locks[1].ContentionPct},
		{"ICs off", st.Interp.ICHitPct},
	} {
		if c.pct != 0 || math.IsNaN(c.pct) {
			t.Errorf("%s: share = %v, want 0", c.what, c.pct)
		}
	}
}

// TestStatsHostAllocations pins the Go allocations of one snapshot on
// a five-processor system, exactly or lower: Stats() makes its two
// slices plus the machine's lock list, and Metrics() adds nothing
// without histograms (the field-by-field copy it replaced made 9).
// benchmark/ reads Stats() inside the timed passes it counts mallocs
// over.
func TestStatsHostAllocations(t *testing.T) {
	s := newSystem(t, func(c *Config) { c.Processors = 5 })
	if _, err := s.Evaluate("3 + 4"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = s.Stats() }); n > 3 {
		t.Errorf("Stats() allocates %v times, want <= 3", n)
	}
	if n := testing.AllocsPerRun(20, func() { _ = s.Metrics() }); n > 3 {
		t.Errorf("Metrics() allocates %v times, want <= 3", n)
	}
}

// TestStringPrimitivesAllocateNothing runs each primitive that reads a
// Smalltalk string in a warm 1000-iteration loop and holds it to the Go
// allocations of the same loop with an empty body: the primitives read
// their strings in the heap or through the interpreter's scratch, and
// the display and the Transcript copy into buffers they reuse. The
// fewest of five warm evaluations counts, as in the boot pins: a Go GC
// cycle adds a few allocations to some.
func TestStringPrimitivesAllocateNothing(t *testing.T) {
	s := newSystem(t, nil)
	if _, err := s.Evaluate("Object subclass: #AllocProbe instanceVariableNames: '' category: 'probes'"); err != nil {
		t.Fatal(err)
	}
	loop := func(body string) uint64 {
		src := "1 to: 1000 do: [:i | " + body + "]"
		// Warm: the doIt memo, the output queue's ring and arena, the
		// Transcript's 64 KiB, and the plan slots' code buffers (each
		// evaluation materializes its doIt at a new address, so it meets
		// plan slots whose buffers may still be too small for it).
		for range 20 {
			if _, err := s.EvaluateRaw(src); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
		}
		fewest := uint64(math.MaxUint64)
		for range 5 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := s.EvaluateRaw(src); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			runtime.ReadMemStats(&m1)
			fewest = min(fewest, m1.Mallocs-m0.Mallocs)
		}
		return fewest
	}
	empty := loop("")
	for _, body := range []string{
		"Display displayString: 'drawn on the display' at: i at: 3",
		"Transcript show: 'shown on the Transcript'",
		"#probeSymbol asString",
		"'probeSymbol' asSymbol",
		"AllocProbe compile: 'probe ^1' classified: 'probes'",
		"Smalltalk at: #ProbeGlobal put: i",
		"Smalltalk at: #ProbeGlobal",
		"Smalltalk includesKey: #ProbeGlobal",
	} {
		if got := loop(body); got > empty {
			t.Errorf("[%s] x1000: %d Go allocations, the empty loop %d", body, got, empty)
		}
	}
}
