package bench

import (
	"reflect"
	"testing"

	"mst/internal/core"
	"mst/internal/trace"
)

// latencyRun boots the ms-busy state with histograms on (parallel
// selects the true-parallel host mode) and returns the latency
// snapshot plus the scavenge count.
func latencyRun(t *testing.T, parallel bool) (*trace.LatencyMetrics, uint64) {
	t.Helper()
	states := StandardStates()
	st := states[len(states)-1].with(func(cfg *core.Config) { // ms-busy
		cfg.Histograms = true
		cfg.Parallel = parallel
	})
	var lat *trace.LatencyMetrics
	var scavenges uint64
	if _, err := runState(st, []string{"printClassHierarchy"}, func(sys *core.System) error {
		lat, scavenges = sys.Metrics().Latency, sys.Stats().Heap.Scavenges
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lat, scavenges
}

// TestLatencyBucketsScheduleIndependent: in deterministic mode the
// histogram bucket counts are pure virtual-time facts — two runs of the
// same configuration produce bit-identical snapshots, percentiles and
// all, which is what lets the bench gate compare them exactly.
func TestLatencyBucketsScheduleIndependent(t *testing.T) {
	a, scavA := latencyRun(t, false)
	b, scavB := latencyRun(t, false)
	if a == nil || b == nil {
		t.Fatal("latency section missing from an instrumented run")
	}
	if scavA != scavB {
		t.Fatalf("scavenge counts diverge across identical det runs: %d vs %d", scavA, scavB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("latency snapshots diverge across identical det runs:\n%+v\nvs\n%+v", a, b)
	}
	if a.ScavengePause.Count == 0 || int64(scavA) != a.ScavengePause.Count {
		t.Errorf("pause samples (%d) != scavenges (%d)", a.ScavengePause.Count, scavA)
	}
	if a.Dispatch.Count == 0 {
		t.Error("det run recorded no dispatch latencies")
	}
	if len(a.LockWait) == 0 {
		t.Error("det run recorded no lock-wait series")
	}
}

// TestLatencyParallelHostSane: in true-parallel host mode the virtual
// pause values are host-schedule-dependent, so nothing is compared
// against the deterministic run — but the histograms (atomic, shared
// across goroutine processors) must still be internally consistent:
// one pause sample per scavenge, phase series aligned with pauses, and
// a renderable report.
func TestLatencyParallelHostSane(t *testing.T) {
	lat, scav := latencyRun(t, true)
	if lat == nil {
		t.Fatal("latency section missing from a parallel instrumented run")
	}
	if scav > 0 && lat.ScavengePause.Count != int64(scav) {
		t.Errorf("pause samples (%d) != scavenges (%d)", lat.ScavengePause.Count, scav)
	}
	if lat.ScavRendezvous.Count != lat.ScavengePause.Count {
		t.Errorf("rendezvous samples (%d) != pause samples (%d)",
			lat.ScavRendezvous.Count, lat.ScavengePause.Count)
	}
	// The baton scheduler runs only during the deterministic boot phase
	// (SetParallel flips after boot), so dispatch samples exist but stop
	// accumulating once the goroutine processors take over. Nothing to
	// pin beyond the series being well-formed.
	if lat.Dispatch.Count < 0 || lat.Dispatch.Sum < 0 {
		t.Errorf("malformed dispatch series: %+v", lat.Dispatch)
	}
}
