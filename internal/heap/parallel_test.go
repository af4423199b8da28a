package heap

import (
	"fmt"
	"sync/atomic"
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
)

// TestParallelScavengeRendezvous: with the heap in parallel mode, real
// goroutine processors allocate concurrently out of a tiny eden, so
// scavenges happen while the other processors are genuinely running.
// Each scavenge must stop the world (the rendezvous in Scavenge), keep
// every processor's rooted object alive across the copy, and leave the
// heap structurally sound.
func TestParallelScavengeRendezvous(t *testing.T) {
	testParallelRendezvous(t, false)
}

// The same rendezvous workload with the parallel scavenger engaged:
// whichever processor fills eden stops the world and runs every
// worker's share of the drain itself. Under -race this checks that the
// owner's drain shares no word with the parked processors outside the
// rendezvous.
func TestParallelScavengeRendezvousParScavenge(t *testing.T) {
	testParallelRendezvous(t, true)
}

func testParallelRendezvous(t *testing.T, parScav bool) {
	const procs, iters, fields = 4, 400, 8
	cfg := smallConfig()
	cfg.Parallel = true
	cfg.ParScavenge = parScav
	m := firefly.New(procs, firefly.DefaultCosts())
	h := New(m, cfg)

	// One root slot per processor, updated by the scavenger when the
	// object moves (so re-reading it after a safepoint is the correct
	// discipline, exactly as the interpreter's registers work).
	roots := make([]object.OOP, procs)
	for i := range roots {
		roots[i] = object.Nil
		h.AddRoot(&roots[i])
	}

	var done atomic.Int32
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
		for !p.Stopped() {
			p.AdvanceIdle(10)
			p.Yield()
		}
	}
	for i := 0; i < procs; i++ {
		m.Start(i, work)
	}
	m.SetParallel(true)
	if r := m.Run(func() bool { return done.Load() == procs }); r != firefly.StopUntil {
		t.Fatalf("Run returned %v", r)
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
	m.Shutdown()
}
