package heap

import (
	"reflect"
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
)

func TestFullCollectReclaimsDeadOldObjects(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var keep object.OOP
		h.AddRoot(&keep)
		keep = h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.StoreNoCheck(keep, 0, object.FromInt(7))
		// Dead weight in old space.
		for i := 0; i < 50; i++ {
			h.AllocateNoGC(object.Nil, 10, object.FmtPointers)
		}
		usedBefore := h.Stats().OldWordsInUse
		h.FullCollect(p)
		st := h.Stats()
		if st.FullCollections != 1 {
			t.Fatalf("collections = %d", st.FullCollections)
		}
		if st.OldWordsInUse >= usedBefore {
			t.Fatalf("old space did not shrink: %d -> %d", usedBefore, st.OldWordsInUse)
		}
		if st.ReclaimedOldWords == 0 {
			t.Fatal("nothing reclaimed")
		}
		if h.Fetch(keep, 0).Int() != 7 {
			t.Fatal("live object corrupted")
		}
		h.CheckInvariants()
	})
}

func TestFullCollectSlidesAndRewires(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		// dead, live-a, dead, live-b with live-a -> live-b: after
		// compaction both move and the reference must follow.
		h.AllocateNoGC(object.Nil, 20, object.FmtPointers)
		var a object.OOP
		h.AddRoot(&a)
		a = h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.AllocateNoGC(object.Nil, 20, object.FmtPointers)
		b := h.AllocateNoGC(object.Nil, 1, object.FmtPointers)
		h.StoreNoCheck(b, 0, object.FromInt(99))
		h.Store(p, a, 0, b)

		aBefore := a
		h.FullCollect(p)
		if a == aBefore {
			t.Fatal("object did not slide despite dead predecessor")
		}
		moved := h.Fetch(a, 0)
		if h.Fetch(moved, 0).Int() != 99 {
			t.Fatal("reference to slid object broken")
		}
		h.CheckInvariants()
	})
}

func TestFullCollectPreservesNewSpace(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var root object.OOP
		h.AddRoot(&root)
		root = h.Allocate(p, object.Nil, 2, object.FmtPointers)
		h.StoreNoCheck(root, 0, object.FromInt(123))
		// An old object referencing a new one (remembered set entry).
		var old object.OOP
		h.AddRoot(&old)
		old = h.AllocateNoGC(object.Nil, 1, object.FmtPointers)
		h.Store(p, old, 0, root)

		h.FullCollect(p)
		if h.Fetch(root, 0).Int() != 123 {
			t.Fatal("new-space object corrupted")
		}
		if got := h.Fetch(old, 0); got != root {
			t.Fatalf("old->new reference broken: %v vs %v", got, root)
		}
		// The young object must still be scavengeable afterwards.
		h.Scavenge(p)
		if h.Fetch(h.Fetch(old, 0), 0).Int() != 123 {
			t.Fatal("remembered set lost across full collection")
		}
		h.CheckInvariants()
	})
}

func TestFullCollectDropsDeadRememberedEntries(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		// A dead old object remembered for referencing new space: the
		// entry must vanish with its object.
		dead := h.AllocateNoGC(object.Nil, 1, object.FmtPointers)
		young := h.Allocate(p, object.Nil, 0, object.FmtPointers)
		h.Store(p, dead, 0, young)
		if h.RememberedCount() != 1 {
			t.Fatal("setup: not remembered")
		}
		h.FullCollect(p)
		if h.RememberedCount() != 0 {
			t.Fatalf("remembered = %d after full GC", h.RememberedCount())
		}
	})
}

func TestFullCollectChained(t *testing.T) {
	cfg := smallConfig()
	testHeap(t, cfg, func(h *Heap, p *firefly.Proc) {
		var root object.OOP
		h.AddRoot(&root)
		// Build, collect, verify repeatedly while creating garbage.
		for round := 0; round < 5; round++ {
			root = object.Nil
			for i := 0; i < 30; i++ {
				hs := h.Handles(p)
				n := h.Allocate(p, object.Nil, 2, object.FmtPointers)
				h.StoreNoCheck(n, 0, object.FromInt(int64(i)))
				h.Store(p, n, 1, root)
				root = n
				hs.Close()
			}
			for i := 0; i < 10; i++ {
				h.AllocateNoGC(object.Nil, 8, object.FmtPointers)
			}
			h.FullCollect(p)
			n := root
			for i := 29; i >= 0; i-- {
				if h.Fetch(n, 0).Int() != int64(i) {
					t.Fatalf("round %d: node %d corrupted", round, i)
				}
				n = h.Fetch(n, 1)
			}
			h.CheckInvariants()
		}
		if h.Stats().FullCollections != 5 {
			t.Fatalf("collections = %d", h.Stats().FullCollections)
		}
	})
}

func TestFullCollectStallsOthers(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		stall := stallBeside(parallel, 3000, 1, func(h *Heap, p *firefly.Proc) {
			for i := 0; i < 40; i++ {
				h.AllocateNoGC(object.Nil, 16, object.FmtPointers)
			}
			p.Advance(100)
			h.FullCollect(p)
		})
		if stall == 0 {
			t.Errorf("parallel=%v: full collection did not stall the other processor", parallel)
		}
	}
}

// compactRig is what a compactor edge case builds on: objects stamped
// with an ID in field 0 (canonicalize's convention) and a rooted slice.
type compactRig struct {
	t     *testing.T
	h     *Heap
	p     *firefly.Proc
	roots []object.OOP
	id    int64
}

// old allocates a stamped old-space object with fields pointer fields
// (field 0 is the stamp).
func (r *compactRig) old(fields int) object.OOP {
	return r.stamp(r.h.AllocateNoGC(object.Nil, fields, object.FmtPointers))
}

// young allocates a stamped eden object.
func (r *compactRig) young(fields int) object.OOP {
	return r.stamp(r.h.Allocate(r.p, object.Nil, fields, object.FmtPointers))
}

func (r *compactRig) stamp(o object.OOP) object.OOP {
	r.id++
	r.h.StoreNoCheck(o, 0, object.FromInt(r.id))
	return o
}

// root registers o and answers its index in r.roots, which follows the
// object as it moves.
func (r *compactRig) root(o object.OOP) int {
	r.roots = append(r.roots, o)
	return len(r.roots) - 1
}

// shape strips what a collection legitimately changes (the nested
// scavenge ages and tenures) from a canonical graph.
func shape(res fuzzResult) fuzzResult {
	out := fuzzResult{Roots: res.Roots, Objs: map[int64]canonObj{}}
	for id, o := range res.Objs {
		out.Objs[id] = canonObj{Class: o.Class, Fields: o.Fields, Raw: o.Raw}
	}
	return out
}

// oldOrder lists the IDs of the live old-space objects in address order.
func (r *compactRig) oldOrder(live map[int64]canonObj) []int64 {
	var ids []int64
	h := r.h
	for a := h.old.base; a < h.old.next; a += uint64(object.Header(h.mem[a]).SizeWords()) {
		id := h.Fetch(object.FromAddr(a), 0)
		if _, ok := live[id.Int()]; ok && id.IsInt() {
			ids = append(ids, id.Int())
		}
	}
	return ids
}

// collect runs one full collection and holds it to what every case
// expects: invariants, the same graph up to addresses, and sliding —
// the live old objects keep their relative order (objects the nested
// scavenge tenures arrive behind them). It poisons the retained
// forwarding table first, so that reading an entry this collection did
// not write sends a reference out of the heap.
func (r *compactRig) collect() {
	r.t.Helper()
	h := r.h
	to := h.plan.to[:cap(h.plan.to)]
	for i := range to {
		to[i] = ^uint32(0)
	}
	before := canonicalize(r.t, h, r.roots, nil)
	orderBefore := r.oldOrder(before.Objs)
	h.FullCollect(r.p)
	h.CheckInvariants()
	after := canonicalize(r.t, h, r.roots, nil)
	if !reflect.DeepEqual(shape(before), shape(after)) {
		r.t.Fatalf("graph changed across the collection\nbefore: %+v\nafter:  %+v", shape(before), shape(after))
	}
	orderAfter := r.oldOrder(after.Objs)
	if len(orderAfter) < len(orderBefore) || !reflect.DeepEqual(orderBefore, orderAfter[:len(orderBefore)]) {
		r.t.Fatalf("compaction did not slide: old-space order %v became %v", orderBefore, orderAfter)
	}
	if len(h.markStack) != 0 {
		r.t.Fatalf("mark stack holds %d entries after the collection", len(h.markStack))
	}
}

// findByID walks a space for the object stamped id (dead objects
// included); it answers Invalid when there is none.
func (r *compactRig) findByID(s space, id int64) object.OOP {
	h := r.h
	for a := s.base; a < s.next; a += uint64(object.Header(h.mem[a]).SizeWords()) {
		if h.Fetch(object.FromAddr(a), 0) == object.FromInt(id) {
			return object.FromAddr(a)
		}
	}
	return object.Invalid
}

// TestCompactorEdges drives the address-indexed forwarding table through
// its boundaries.
func TestCompactorEdges(t *testing.T) {
	cases := []struct {
		name string
		run  func(r *compactRig)
	}{
		{"nothing dead", func(r *compactRig) {
			a, b := r.old(3), r.old(5)
			r.h.Store(r.p, a, 1, b)
			r.h.Store(r.p, b, 1, a)
			r.root(a)
			next := r.h.old.next
			r.collect()
			if len(r.h.plan.to) != 0 || r.h.plan.first != next {
				r.t.Fatalf("plan = first %d, %d entries; want first %d and an empty table", r.h.plan.first, len(r.h.plan.to), next)
			}
			if r.h.old.next != next || r.roots[0] != a {
				r.t.Fatalf("old space moved: next %d -> %d, root %v -> %v", next, r.h.old.next, a, r.roots[0])
			}
		}},
		{"everything above the immovable prefix dead", func(r *compactRig) {
			a, b := r.old(3), r.old(4)
			r.h.Store(r.p, a, 1, b)
			r.root(a)
			prefixEnd := r.h.old.next
			for i := 0; i < 10; i++ {
				r.h.Store(r.p, r.old(6), 1, a) // dead, and referring to the living
			}
			r.collect()
			if r.h.old.next != prefixEnd || r.h.plan.first != prefixEnd {
				r.t.Fatalf("old.next = %d, plan.first = %d; want both %d", r.h.old.next, r.h.plan.first, prefixEnd)
			}
			if r.roots[0] != a || r.h.Fetch(a, 1) != b {
				r.t.Fatal("the immovable prefix moved")
			}
		}},
		{"references across the first-moved boundary", func(r *compactRig) {
			// below (the last object that stays), a dead gap, at (the
			// first that moves, into the gap's place), and a holder
			// above referring to both — as they refer to each other.
			below := r.old(3)
			gap := r.h.old.next
			r.old(7)
			at := r.old(3)
			holder := r.old(4)
			r.h.Store(r.p, holder, 1, below)
			r.h.Store(r.p, holder, 2, at)
			r.h.Store(r.p, below, 1, at)
			r.h.Store(r.p, at, 1, below)
			r.root(below)
			hi := r.root(holder)
			r.collect()
			if r.h.plan.first != gap {
				r.t.Fatalf("plan.first = %d, want the dead object's address %d", r.h.plan.first, gap)
			}
			holder = r.roots[hi]
			if got := r.h.Fetch(holder, 1); got != below {
				r.t.Fatalf("reference just below the boundary became %v, want %v unchanged", got, below)
			}
			if got := r.h.Fetch(holder, 2); got != object.FromAddr(gap) || r.h.Fetch(below, 1) != got {
				r.t.Fatalf("reference at the boundary became %v, want %v", got, object.FromAddr(gap))
			}
		}},
		{"no immovable prefix", func(r *compactRig) {
			r.old(5) // dead at old.base
			a := r.old(3)
			r.root(a)
			r.collect()
			if r.h.plan.first != r.h.old.base || r.roots[0] != object.FromAddr(r.h.old.base) {
				r.t.Fatalf("plan.first = %d, root at %v; want both at old.base %d", r.h.plan.first, r.roots[0], r.h.old.base)
			}
		}},
		{"dead and live survivors", func(r *compactRig) {
			// deadOld is unreachable but remembered, so the nested
			// scavenge keeps its young referent: a dead survivor, whose
			// reference back into dead old space must be nilled. The
			// rooted survivor's reference to a moving object follows it.
			r.old(9) // dead: whatever lives behind it moves
			deadOld := r.old(3)
			liveOld := r.old(3)
			deadYoung, liveYoung := r.young(3), r.young(3)
			deadID := r.id - 1
			r.h.Store(r.p, deadOld, 1, deadYoung)
			r.h.Store(r.p, deadYoung, 1, deadOld)
			r.h.Store(r.p, deadYoung, 2, liveOld)
			r.h.Store(r.p, liveYoung, 1, liveOld)
			r.root(liveOld)
			yi := r.root(liveYoung)
			r.collect()
			past := r.h.surv[r.h.past]
			corpse := r.findByID(past, deadID)
			if corpse == object.Invalid {
				r.t.Fatal("setup: the dead survivor did not survive the nested scavenge")
			}
			if got := r.h.Fetch(corpse, 1); got != object.Nil {
				r.t.Fatalf("dead survivor's reference into dead old space = %v, want nil", got)
			}
			if got := r.h.Fetch(corpse, 2); got != r.roots[0] {
				r.t.Fatalf("dead survivor's reference to a live old object = %v, want %v", got, r.roots[0])
			}
			if got := r.h.Fetch(r.roots[yi], 1); got != r.roots[0] || got == liveOld {
				r.t.Fatalf("live survivor's reference = %v, want the moved %v (was %v)", got, r.roots[0], liveOld)
			}
			if r.h.RememberedCount() != 0 {
				r.t.Fatalf("remembered = %d, want the dead entry dropped", r.h.RememberedCount())
			}
		}},
		{"smaller then larger moved extent", func(r *compactRig) {
			keep := r.old(3)
			r.root(keep)
			// Each round hangs a fresh chain off keep with dead objects
			// in between; the extent is the garbage plus the chain.
			for _, garbage := range []int{40, 4, 90} {
				prev := keep
				for i := 0; i < 6; i++ {
					for g := 0; g < garbage; g += 4 {
						r.old(3)
					}
					n := r.old(3)
					r.h.Store(r.p, prev, 1, n)
					prev = n
				}
				extent := int(r.h.old.next-r.h.old.base) / 2
				r.collect()
				if len(r.h.plan.to) == 0 || len(r.h.plan.to) > extent {
					r.t.Fatalf("garbage %d: table has %d entries for at most %d", garbage, len(r.h.plan.to), extent)
				}
				r.h.Store(r.p, keep, 1, object.Nil) // the chain dies
			}
		}},
		{"remembered entries forwarded or dropped", func(r *compactRig) {
			r.old(9) // dead: both remembered objects would move
			dropped := r.old(3)
			kept := r.old(3)
			r.h.Store(r.p, dropped, 1, r.young(2))
			r.h.Store(r.p, kept, 1, r.young(2))
			childID := r.id
			ki := r.root(kept)
			if r.h.RememberedCount() != 2 {
				r.t.Fatalf("setup: remembered = %d, want 2", r.h.RememberedCount())
			}
			r.collect()
			kept = r.roots[ki]
			if r.h.RememberedCount() != 1 || r.h.remembered[0] != kept || !r.h.Header(kept).Remembered() {
				r.t.Fatalf("entry table = %v, want the one moved object %v with its bit set", r.h.remembered, kept)
			}
			r.h.Scavenge(r.p)
			r.h.CheckInvariants()
			if got := r.h.Fetch(r.h.Fetch(r.roots[ki], 1), 0); got != object.FromInt(childID) {
				r.t.Fatalf("young referent lost after the entry was forwarded: stamp %v, want %d", got, childID)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
				r := &compactRig{t: t, h: h, p: p}
				h.AddRootFunc(func(visit func(*object.OOP)) {
					for i := range r.roots {
						visit(&r.roots[i])
					}
				})
				c.run(r)
			})
		})
	}
}

// TestNewRejectsGeometryPastTheForwardingTable: a forwarding-table entry
// is a uint32 word address, so a heap whose addresses do not fit one is
// refused at construction, not truncated at its first full collection.
func TestNewRejectsGeometryPastTheForwardingTable(t *testing.T) {
	m := firefly.New(1, firefly.DefaultCosts())
	cfg := smallConfig()
	cfg.OldWords = 1 << 32
	defer func() {
		if r := recover(); r != "heap: configuration too large" {
			t.Fatalf("New with %d old words: recovered %v, want the configuration panic", cfg.OldWords, r)
		}
	}()
	New(m, cfg)
}

// churn is one steady-state round of collector work on h: garbage and a
// moving live object in old space, a fresh young object hung off the
// rooted ring (a store check once the ring is old), young garbage.
func churn(h *Heap, p *firefly.Proc, ring object.OOP, round int) {
	h.AllocateNoGC(object.Nil, 6, object.FmtPointers)
	h.Store(p, ring, 1+round%3, h.AllocateNoGC(object.Nil, 4, object.FmtPointers))
	for i := 0; i < 4; i++ {
		h.Store(p, ring, 4+(round+i)%4, h.Allocate(p, object.Nil, 3, object.FmtPointers))
	}
}

// TestCollectorScratchIsHostScratch: the retained forwarding table and
// mark stack belong to the host, not to the image. A heap that never
// full-collects never allocates them, a full collection sizes the table
// to its own moved extent, and a heap restored from a snapshot of a heap
// that has them starts with neither.
func TestCollectorScratchIsHostScratch(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var ring object.OOP
		h.AddRoot(&ring)
		ring = h.Allocate(p, object.Nil, 8, object.FmtPointers)
		for round := 0; round < 8; round++ {
			churn(h, p, ring, round)
			h.Scavenge(p)
		}
		if h.plan.to != nil || h.markStack != nil {
			t.Fatalf("scavenges alone allocated collector scratch: table cap %d, mark stack cap %d",
				cap(h.plan.to), cap(h.markStack))
		}
		h.FullCollect(p)
		// What compaction started from is what it left plus what it freed.
		st := h.Stats()
		extent := int(st.OldWordsInUse+st.ReclaimedOldWords) / 2
		if n := len(h.plan.to); n == 0 || n > extent || cap(h.plan.to) != n || cap(h.markStack) == 0 {
			t.Fatalf("after a full collection: table len %d cap %d for an old space of %d entries, mark stack cap %d",
				n, cap(h.plan.to), extent, cap(h.markStack))
		}

		clone, err := RestoreHeap(firefly.New(1, firefly.DefaultCosts()), h.SnapshotState())
		if err != nil {
			t.Fatal(err)
		}
		if clone.plan.to != nil || clone.plan.first != 0 || clone.markStack != nil {
			t.Fatalf("clone inherited collector scratch: %+v, mark stack cap %d", clone.plan, cap(clone.markStack))
		}
		if clone.old.next != h.old.next || clone.RememberedCount() != h.RememberedCount() {
			t.Fatal("clone differs from its source in what a snapshot does carry")
		}
	})
}

// TestCollectorHostAllocations pins the Go allocations of the two serial
// collectors at zero: with no observer attached, a steady-state scavenge
// and a steady-state full collection on a warmed heap reuse the root
// visitors, the mark stack and the forwarding table and allocate
// nothing — the collectors' twin of serve's TestEvalHostAllocations.
func TestCollectorHostAllocations(t *testing.T) {
	cfg := smallConfig()
	cfg.OldWords = 64 << 10 // room for what 200 scavenge rounds tenure
	testHeap(t, cfg, func(h *Heap, p *firefly.Proc) {
		var ring object.OOP
		h.AddRoot(&ring)
		ring = h.Allocate(p, object.Nil, 8, object.FmtPointers)
		round := 0
		for _, c := range []struct {
			name    string
			collect func(*firefly.Proc)
		}{{"Scavenge", h.Scavenge}, {"FullCollect", h.FullCollect}} {
			work := func() {
				churn(h, p, ring, round)
				round++
				c.collect(p)
			}
			for i := 0; i < 8; i++ {
				work() // tenure the ring, grow the entry table and the scratch
			}
			if got := testing.AllocsPerRun(200, work); got != 0 {
				t.Errorf("%s: %.0f Go allocations per steady-state collection, want 0", c.name, got)
			}
		}
		if st := h.Stats(); st.Scavenges < 400 || st.FullCollections < 200 || st.TenuredObjects == 0 || st.ReclaimedOldWords == 0 {
			t.Fatalf("the rounds did no collector work: %+v", st)
		}
		h.CheckInvariants()
	})
}
