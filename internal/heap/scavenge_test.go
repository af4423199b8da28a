package heap

import (
	"fmt"
	"sync/atomic"
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
)

// scavRow is one scavenger configuration of the tests below.
type scavRow struct {
	procs    int
	parScav  bool
	parallel bool
}

func (r scavRow) String() string {
	mode := "det"
	if r.parallel {
		mode = "parallel"
	}
	return fmt.Sprintf("procs=%d/parscavenge=%v/%s", r.procs, r.parScav, mode)
}

// runScavRow runs fn on processor 0 of a fresh machine and heap of cfg
// shaped by row; in parallel host mode the other processors idle at
// safepoints until fn returns.
func runScavRow(t *testing.T, row scavRow, cfg Config, fn func(h *Heap, p *firefly.Proc)) {
	t.Helper()
	cfg.ParScavenge, cfg.Parallel = row.parScav, row.parallel
	m := firefly.New(row.procs, firefly.DefaultCosts())
	h := New(m, cfg)
	var done atomic.Bool
	m.Start(0, func(p *firefly.Proc) {
		defer done.Store(true)
		fn(h, p)
	})
	if !row.parallel {
		if r := m.Run(nil); r != firefly.StopAllDone {
			t.Fatalf("%v: machine stopped with %v", row, r)
		}
		return
	}
	for i := 1; i < row.procs; i++ {
		m.Start(i, func(p *firefly.Proc) {
			for !p.Stopped() {
				p.AdvanceIdle(10)
				p.Yield()
			}
		})
	}
	m.SetParallel(true)
	if r := m.Run(done.Load); r != firefly.StopUntil && r != firefly.StopAllDone {
		t.Fatalf("%v: Run returned %v", row, r)
	}
	m.Shutdown()
}

// TestDuplicateRootSlotCopiedOnce: a root slot registered twice, and
// visited once more by a root function, is one root. The first visit
// copies its object; the later ones find it already in the future
// survivor space and leave it there.
func TestDuplicateRootSlotCopiedOnce(t *testing.T) {
	for _, row := range []scavRow{{4, false, false}, {4, true, false}, {4, false, true}, {4, true, true}} {
		t.Run(row.String(), func(t *testing.T) {
			runScavRow(t, row, smallConfig(), func(h *Heap, p *firefly.Proc) {
				var o object.OOP
				h.AddRoot(&o)
				h.AddRoot(&o)
				h.AddRootFunc(func(visit func(*object.OOP)) { visit(&o) })
				o = h.Allocate(p, object.Nil, 4, object.FmtPointers)
				h.Store(p, o, 1, object.FromInt(42))
				h.Scavenge(p)
				h.CheckInvariants()
				if st := h.Stats(); st.CopiedObjects != 1 {
					t.Errorf("%d objects copied, want 1", st.CopiedObjects)
				}
				if !h.surv[h.past].contains(o.Addr()) || h.Fetch(o, 1).Int() != 42 {
					t.Errorf("root %v does not hold the survivor", o)
				}
			})
		})
	}
}

// TestRememberedPeakCountsScavengeEntries: an object tenured while its
// referent stays young enters the entry table during the scavenge, and
// the table's peak counts it.
func TestRememberedPeakCountsScavengeEntries(t *testing.T) {
	for _, row := range []scavRow{{1, false, false}, {4, true, false}} {
		t.Run(row.String(), func(t *testing.T) {
			runScavRow(t, row, smallConfig(), func(h *Heap, p *firefly.Proc) {
				var a, b object.OOP
				h.AddRoot(&a)
				a = h.Allocate(p, object.Nil, 2, object.FmtPointers)
				h.Scavenge(p)
				b = h.Allocate(p, object.Nil, 2, object.FmtPointers)
				h.Store(p, a, 1, b)
				h.Scavenge(p) // a reaches TenureAge; b survives young
				if !h.InOldSpace(a) || !h.InNewSpace(h.Fetch(a, 1)) {
					t.Error("a was not tenured with a young referent")
					return
				}
				if n, peak := h.RememberedCount(), h.Stats().RememberedPeak; n != 1 || peak != 1 {
					t.Errorf("entry table holds %d, peak %d; want 1 and 1", n, peak)
				}
			})
		})
	}
}

// TestScavengeOOM: an explicit scavenge of rooted survivors that fit
// neither the survivor space nor old space panics with OOMError from
// inside Scavenge, and leaves the heap out of its collection.
func TestScavengeOOM(t *testing.T) {
	cfg := smallConfig()
	cfg.OldWords, cfg.EdenWords, cfg.SurvivorWords = 1024, 4096, 128
	for _, row := range []scavRow{{1, false, false}, {4, true, false}, {1, false, true}, {4, true, true}} {
		t.Run(row.String(), func(t *testing.T) {
			runScavRow(t, row, cfg, func(h *Heap, p *firefly.Proc) {
				roots := make([]object.OOP, 60)
				h.AddRootFunc(func(visit func(*object.OOP)) {
					for i := range roots {
						visit(&roots[i])
					}
				})
				for i := range roots {
					roots[i] = h.Allocate(p, object.Nil, 24, object.FmtPointers)
				}
				if h.Stats().Scavenges != 0 {
					t.Error("allocating the survivors scavenged")
					return
				}
				defer func() {
					if _, ok := recover().(OOMError); !ok {
						t.Error("Scavenge did not panic with OOMError")
					}
					if h.inGC {
						t.Error("heap still in its collection after the panic")
					}
				}()
				h.Scavenge(p)
			})
		})
	}
}
