package core

import (
	"math"
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
