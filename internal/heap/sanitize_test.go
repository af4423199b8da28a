package heap

import (
	"strings"
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/sanitize"
)

// sanHeap builds a small heap on a machine with an attached sanitizer
// and runs fn on one processor.
func sanHeap(t *testing.T, cfg Config, fn func(h *Heap, p *firefly.Proc)) *sanitize.Checker {
	t.Helper()
	m := firefly.New(1, firefly.DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	h := New(m, cfg)
	m.Start(0, func(p *firefly.Proc) { fn(h, p) })
	if r := m.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("machine stopped with %v", r)
	}
	return san
}

// A normal allocate/store/scavenge workload must be completely clean
// under the sanitizer, and the write-barrier verifier must have run.
func TestSanitizerCleanWorkload(t *testing.T) {
	san := sanHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		// Build two old objects, then make them reference new space
		// through the proper barriers (a field store and a class-word
		// store), then scavenge repeatedly. One object is large enough
		// to go straight to old space, under the alloc lock.
		old := h.AllocateNoGC(object.Nil, 4, object.FmtPointers)
		classed := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.Allocate(p, object.Nil, 200, object.FmtPointers)
		var root object.OOP = object.Nil
		h.AddRoot(&root)
		for i := 0; i < 5; i++ {
			young := h.Allocate(p, object.Nil, 2, object.FmtPointers)
			root = young
			h.Store(p, old, 0, young)
			h.SetClass(p, classed, young)
			h.Scavenge(p)
		}
	})
	if vs := san.Violations(); len(vs) != 0 {
		t.Fatalf("clean workload reported violations:\n%s", san.Report())
	}
	st := san.Stats()
	if st.BarrierScans == 0 {
		t.Error("write-barrier verifier never ran")
	}
	if st.AccessChecks == 0 || st.LockEvents == 0 {
		t.Errorf("no checking happened: %+v", st)
	}
}

// Fault injection: a store that bypasses the store check (StoreNoCheck
// misused on an old object with a new-space value) must be caught by
// the write-barrier verifier at the next scavenge — and by nothing
// else (exactly the intended engine fires).
func TestSanitizerCatchesStoreCheckBypass(t *testing.T) {
	san := sanHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		old := h.AllocateNoGC(object.Nil, 4, object.FmtPointers)
		young := h.Allocate(p, object.Nil, 2, object.FmtPointers)
		// BUG UNDER TEST: this store needs the store check; without it
		// the scavenger never learns `old` references new space.
		h.StoreNoCheck(old, 1, young)
		h.Scavenge(p)
	})
	vs := san.Violations()
	if len(vs) == 0 {
		t.Fatal("store-check bypass not detected")
	}
	for _, v := range vs {
		if v.Kind != sanitize.KindWriteBarrier {
			t.Errorf("unexpected violation kind %v (want only write-barrier): %s", v.Kind, v)
		}
	}
	if !strings.Contains(vs[0].String(), "store check") {
		t.Errorf("violation does not name the store check: %s", vs[0])
	}
}

// The converse fault: an entry-table entry whose object no longer
// references new space would mean the scavenger failed to prune it.
// Simulate by appending a stale entry directly (test-only reach into
// the representation) and verifying the next scavenge's scan flags the
// header-bit/table disagreement.
func TestSanitizerCatchesStaleEntryTableBit(t *testing.T) {
	san := sanHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		old := h.AllocateNoGC(object.Nil, 4, object.FmtPointers)
		h.Scavenge(p) // establish a clean baseline scan
		// BUG UNDER TEST: table membership without the header bit. The
		// scavenger would prune this entry in phase 2, so drive the
		// verifier directly, as the post-scavenge hook would.
		h.remembered = append(h.remembered, old)
		h.verifyWriteBarrier(p)
	})
	found := false
	for _, v := range san.Violations() {
		if v.Kind == sanitize.KindWriteBarrier && strings.Contains(v.Detail, "disagrees") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale entry-table bit not detected:\n%s", san.Report())
	}
}

// The sanitizer must leave the heap's behaviour untouched: identical
// stats with and without it (determinism sentinel at the heap level).
func TestSanitizerHeapDeterminism(t *testing.T) {
	run := func(sanitized bool) (Stats, firefly.Time) {
		m := firefly.New(1, firefly.DefaultCosts())
		if sanitized {
			m.SetSanitizer(sanitize.New())
		}
		h := New(m, smallConfig())
		var at firefly.Time
		m.Start(0, func(p *firefly.Proc) {
			var root object.OOP = object.Nil
			h.AddRoot(&root)
			old := h.AllocateNoGC(object.Nil, 4, object.FmtPointers)
			for i := 0; i < 200; i++ {
				o := h.Allocate(p, object.Nil, 8, object.FmtPointers)
				root = o
				if i%17 == 0 {
					h.Store(p, old, 0, o)
				}
			}
			at = p.Now()
		})
		if r := m.Run(nil); r != firefly.StopAllDone {
			t.Fatalf("machine stopped with %v", r)
		}
		return h.Stats(), at
	}
	plain, plainAt := run(false)
	checked, checkedAt := run(true)
	if plain != checked {
		t.Errorf("heap stats diverge under sanitizer:\noff: %+v\non:  %+v", plain, checked)
	}
	if plainAt != checkedAt {
		t.Errorf("virtual time diverges under sanitizer: off=%v on=%v", plainAt, checkedAt)
	}
}
