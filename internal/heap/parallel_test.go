package heap

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/trace"
)

// TestParallelScavengeRendezvous: with the heap in parallel mode, real
// goroutine processors allocate concurrently out of a tiny eden, so
// scavenges happen while the other processors are genuinely running.
// Each scavenge must stop the world (the rendezvous in Scavenge), keep
// every processor's rooted object alive across the copy, and leave the
// heap structurally sound.
func TestParallelScavengeRendezvous(t *testing.T) {
	testParallelRendezvous(t, false, false)
}

// The same rendezvous workload with the parallel scavenger engaged:
// whichever processor fills eden stops the world and runs every
// worker's share of the drain itself. Under -race this checks that the
// owner's drain shares no word with the parked processors outside the
// rendezvous.
func TestParallelScavengeRendezvousParScavenge(t *testing.T) {
	testParallelRendezvous(t, true, false)
}

// The rendezvous with a sharded recorder attached: the owner emits the
// parked processors' stalls into their shards, which under -race checks
// that the window orders those writes against the shards' own
// processors. Each processor ends with a TenureAll while every other
// one is live, and a pause longer than a whole run puts every other
// processor behind the owner's clock, so every shard must hold a
// KStall, and, since StallUntil books every stall, the processor's
// whole stall tally.
func TestParallelScavengeRendezvousTraced(t *testing.T) {
	testParallelRendezvous(t, false, true)
}

func testParallelRendezvous(t *testing.T, parScav, traced bool) {
	const procs, iters, fields = 4, 400, 8
	cfg := smallConfig()
	cfg.Parallel = true
	cfg.ParScavenge = parScav
	costs := firefly.DefaultCosts()
	var rec *trace.Recorder
	if traced {
		costs.ScavengeBase = 1 << 30
		rec = trace.NewShardedRecorder(procs<<16, procs)
	}
	m := firefly.New(procs, costs)
	m.SetRecorder(rec)
	h := New(m, cfg)

	// One root slot per processor, updated by the scavenger when the
	// object moves (so re-reading it after a safepoint is the correct
	// discipline, exactly as the interpreter's registers work).
	roots := make([]object.OOP, procs)
	for i := range roots {
		roots[i] = object.Nil
		h.AddRoot(&roots[i])
	}

	var done, tenured atomic.Int32
	waitAll := func(p *firefly.Proc, n *atomic.Int32) {
		for n.Load() < procs {
			runtime.Gosched()
			p.Yield()
		}
	}
	work := func(p *firefly.Proc) {
		id := p.ID()
		for i := 0; i < iters && !p.Stopped(); i++ {
			o := h.Allocate(p, object.Nil, fields, object.FmtPointers)
			for j := 0; j < fields; j++ {
				h.Store(p, o, j, object.FromInt(int64(id*1_000_000+i*fields+j)))
			}
			roots[id] = o
			p.Advance(5)
			p.CheckYield()
			// A scavenge may have moved the object at the safepoint;
			// the root slot tracks it.
			cur := roots[id]
			for j := 0; j < fields; j++ {
				if got := h.Fetch(cur, j).Int(); got != int64(id*1_000_000+i*fields+j) {
					panic(fmt.Sprintf("proc %d iter %d field %d = %d after scavenge", id, i, j, got))
				}
			}
		}
		done.Add(1)
		if traced {
			// Retire rather than idle on, which would fill the shard
			// with quantum events and push the stalls out of the ring.
			waitAll(p, &done)
			h.TenureAll(p)
			tenured.Add(1)
			waitAll(p, &tenured)
			return
		}
		for !p.Stopped() {
			p.AdvanceIdle(10)
			p.Yield()
		}
	}
	for i := 0; i < procs; i++ {
		m.Start(i, work)
	}
	m.SetParallel(true)
	want := firefly.StopUntil
	if traced {
		want = firefly.StopAllDone
	}
	if r := m.Run(func() bool { return !traced && done.Load() == procs }); r != want {
		t.Fatalf("Run returned %v, want %v", r, want)
	}
	if h.Stats().Scavenges == 0 {
		t.Fatal("eden never filled; the rendezvous went unexercised")
	}
	if parScav && h.Stats().ParScavenges == 0 {
		t.Fatal("no parallel scavenge ran; the shared drain went unexercised")
	}
	h.CheckInvariants()
	for i := range roots {
		for j := 0; j < fields; j++ {
			if got := h.Fetch(roots[i], j).Int(); got != int64(i*1_000_000+(iters-1)*fields+j) {
				t.Errorf("root %d field %d = %d after final scavenge", i, j, got)
			}
		}
	}
	if traced {
		checkStallEvents(t, m, rec)
	}
	m.Shutdown()
}

// checkStallEvents holds every processor's KStall events to its stall
// tally, and wants a stall on every processor.
func checkStallEvents(t *testing.T, m *firefly.Machine, rec *trace.Recorder) {
	t.Helper()
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events; the stall sums need them all", rec.Dropped())
	}
	stalled := make([]firefly.Time, m.NumProcs())
	for _, e := range rec.Events() {
		if e.Kind == trace.KStall {
			stalled[e.Proc] += firefly.Time(e.Arg1)
		}
	}
	for i, got := range stalled {
		want := m.Proc(i).Stats().Stall
		if got != want {
			t.Errorf("processor %d: KStall events sum to %d ticks, its stall tally is %d", i, got, want)
		}
		if got == 0 {
			t.Errorf("processor %d's shard holds no KStall", i)
		}
	}
}
