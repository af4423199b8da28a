package heap

import (
	"bytes"
	"sync/atomic"
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
)

// testHeap builds a small heap and runs fn on a one-processor machine.
func testHeap(t *testing.T, cfg Config, fn func(h *Heap, p *firefly.Proc)) {
	t.Helper()
	m := firefly.New(1, firefly.DefaultCosts())
	h := New(m, cfg)
	m.Start(0, func(p *firefly.Proc) { fn(h, p) })
	if r := m.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("machine stopped with %v", r)
	}
}

func smallConfig() Config {
	return Config{
		OldWords:      8192,
		EdenWords:     1024,
		SurvivorWords: 512,
		TenureAge:     2,
		Policy:        AllocSerialized,
		LocksEnabled:  true,
	}
}

func TestAllocateAndAccessPointers(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		o := h.Allocate(p, object.Nil, 3, object.FmtPointers)
		if h.FieldCount(o) != 3 {
			t.Errorf("FieldCount = %d, want 3", h.FieldCount(o))
		}
		for i := 0; i < 3; i++ {
			if h.Fetch(o, i) != object.Nil {
				t.Errorf("field %d not nil", i)
			}
		}
		h.Store(p, o, 1, object.FromInt(99))
		if got := h.Fetch(o, 1); got.Int() != 99 {
			t.Errorf("field 1 = %v", got)
		}
		if h.ClassOf(o) != object.Nil {
			t.Errorf("class = %v", h.ClassOf(o))
		}
	})
}

func TestAllocateBytes(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		for _, n := range []int{0, 1, 7, 8, 9, 16, 23, 100} {
			o := h.Allocate(p, object.Nil, n, object.FmtBytes)
			if h.ByteLen(o) != n {
				t.Fatalf("ByteLen = %d, want %d", h.ByteLen(o), n)
			}
			for i := 0; i < n; i++ {
				h.StoreByte(o, i, byte(i*7))
			}
			for i := 0; i < n; i++ {
				if h.FetchByte(o, i) != byte(i*7) {
					t.Fatalf("byte %d wrong", i)
				}
			}
		}
		o := h.Allocate(p, object.Nil, 5, object.FmtBytes)
		h.WriteBytes(o, []byte("hello"))
		if string(h.Bytes(o)) != "hello" {
			t.Fatalf("Bytes = %q", h.Bytes(o))
		}
	})
}

// TestByteCopiesMatchByteAccessors holds the word-at-a-time copies —
// Bytes, AppendBytes, String, WriteBytes, WriteString — to FetchByte and StoreByte:
// every length from 0 to 17, UTF-8 text, and a short write into a longer
// object, which must keep the bytes past its end.
func TestByteCopiesMatchByteAccessors(t *testing.T) {
	const text = "héllo, wörld ✓ ok" // 17 runes, 21 bytes
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		for n := 0; n <= 17; n++ {
			src := text[:n]
			o := h.Allocate(p, object.Nil, n, object.FmtBytes)
			h.WriteString(o, src)
			for i := 0; i < n; i++ {
				if got := h.FetchByte(o, i); got != src[i] {
					t.Fatalf("WriteString len %d: byte %d = %#x, want %#x", n, i, got, src[i])
				}
			}
			for i := 0; i < n; i++ {
				h.StoreByte(o, i, byte(0xF0-i))
			}
			want := make([]byte, n)
			for i := range want {
				want[i] = h.FetchByte(o, i)
			}
			if got := h.Bytes(o); string(got) != string(want) || len(got) != n {
				t.Fatalf("Bytes len %d = %x, want %x", n, got, want)
			}
			if got := h.String(o); got != string(want) {
				t.Fatalf("String len %d = %q, want %q", n, got, want)
			}
			if got := h.AppendBytes([]byte("ab"), o); string(got) != "ab"+string(want) {
				t.Fatalf("AppendBytes len %d = %x, want 6162%x", n, got, want)
			}
			h.WriteBytes(o, []byte(src))
			if got := h.String(o); got != src {
				t.Fatalf("WriteBytes len %d read back %q, want %q", n, got, src)
			}
		}
		const long = 17
		for n := 0; n <= long; n++ {
			o := h.Allocate(p, object.Nil, long, object.FmtBytes)
			for i := 0; i < long; i++ {
				h.StoreByte(o, i, 0xAA)
			}
			h.WriteString(o, text[:n])
			for i := 0; i < long; i++ {
				want := byte(0xAA)
				if i < n {
					want = text[i]
				}
				if got := h.FetchByte(o, i); got != want {
					t.Fatalf("write of %d into %d bytes: byte %d = %#x, want %#x", n, long, i, got, want)
				}
			}
		}
	})
}

// TestCompareBytesMatchesBytesCompare orders pairs that differ in a full
// word, in the tail, in a byte past 0x7F, or only in length, as
// bytes.Compare orders their contents.
func TestCompareBytesMatchesBytesCompare(t *testing.T) {
	words := []string{"", "a", "b", "ab", "abc", "abcdefgh", "abcdefgi", "abcdefgh\x00",
		"abcdefghij", "abcdefghik", "abcdefgha", "abcdefgz", "zbcdefgh", "\xffbcdefgh",
		"abcdefghijklmnopq", "abcdefghijklmnopr", "abcdefghijklmnop", "h\xe9llo", "hello"}
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		oops := make([]object.OOP, len(words))
		for i, w := range words {
			oops[i] = h.Allocate(p, object.Nil, len(w), object.FmtBytes)
			h.WriteString(oops[i], w)
		}
		for i, a := range words {
			for j, b := range words {
				if got, want := h.CompareBytes(oops[i], oops[j]), bytes.Compare([]byte(a), []byte(b)); got != want {
					t.Errorf("CompareBytes(%q, %q) = %d, want %d", a, b, got, want)
				}
			}
		}
	})
}

func TestAllocateWords(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		o := h.Allocate(p, object.Nil, 2, object.FmtWords)
		h.StoreWord(o, 0, 0xDEADBEEF)
		h.StoreWord(o, 1, ^uint64(0))
		if h.FetchWord(o, 0) != 0xDEADBEEF || h.FetchWord(o, 1) != ^uint64(0) {
			t.Fatal("raw words corrupted")
		}
	})
}

func TestScavengePreservesReachableGraph(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var root object.OOP
		h.AddRoot(&root)
		// Build a linked list of 10 nodes, each [value, next].
		root = object.Nil
		for i := 0; i < 10; i++ {
			hs := h.Handles(p)
			node := h.Allocate(p, object.Nil, 2, object.FmtPointers)
			h.StoreNoCheck(node, 0, object.FromInt(int64(i)))
			h.Store(p, node, 1, root)
			root = node
			hs.Close()
		}
		before := h.Stats().Scavenges
		h.Scavenge(p)
		if h.Stats().Scavenges != before+1 {
			t.Fatal("scavenge not counted")
		}
		// Walk the list: must still hold 9..0.
		n := root
		for i := 9; i >= 0; i-- {
			if n == object.Nil {
				t.Fatalf("list truncated at %d", i)
			}
			if got := h.Fetch(n, 0).Int(); got != int64(i) {
				t.Fatalf("node value = %d, want %d", got, i)
			}
			n = h.Fetch(n, 1)
		}
		if n != object.Nil {
			t.Fatal("list has extra nodes")
		}
		h.CheckInvariants()
	})
}

func TestScavengeCollectsGarbage(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var root object.OOP
		h.AddRoot(&root)
		root = h.Allocate(p, object.Nil, 2, object.FmtPointers)
		// Allocate plenty of garbage.
		for i := 0; i < 50; i++ {
			h.Allocate(p, object.Nil, 4, object.FmtPointers)
		}
		h.Scavenge(p)
		s := h.Stats()
		// Only the root object (4 words) should have survived.
		if s.LastSurvivors > 8 {
			t.Fatalf("survivors = %d words, want tiny", s.LastSurvivors)
		}
	})
}

func TestEdenExhaustionTriggersScavenge(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		for i := 0; i < 200; i++ { // 200 * 8 words >> eden of 1024
			h.Allocate(p, object.Nil, 6, object.FmtPointers)
		}
		if h.Stats().Scavenges == 0 {
			t.Fatal("no scavenge despite eden exhaustion")
		}
	})
}

func TestHandlesSurviveScavenge(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		hs := h.Handles(p)
		defer hs.Close()
		o := h.Allocate(p, object.Nil, 1, object.FmtPointers)
		h.StoreNoCheck(o, 0, object.FromInt(77))
		hd := hs.Add(o)
		h.Scavenge(p)
		moved := hd.Get()
		if moved == o {
			t.Fatal("object did not move (test assumes it was in eden)")
		}
		if h.Fetch(moved, 0).Int() != 77 {
			t.Fatal("contents lost after move")
		}
	})
}

func TestTenuringAfterTenureAge(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var root object.OOP
		h.AddRoot(&root)
		root = h.Allocate(p, object.Nil, 2, object.FmtPointers)
		for i := 0; i < 3; i++ { // TenureAge is 2
			h.Scavenge(p)
		}
		if !h.InOldSpace(root) {
			t.Fatalf("object not tenured after %d scavenges", 3)
		}
		if h.Stats().TenuredObjects == 0 {
			t.Fatal("tenure not counted")
		}
	})
}

func TestRememberedSetTracksOldToNew(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var old object.OOP
		h.AddRoot(&old)
		old = h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		if !h.InOldSpace(old) {
			t.Fatal("AllocateNoGC did not allocate in old space")
		}
		// Store a new-space pointer into the old object: must be
		// remembered, and the young object must survive a scavenge
		// even though the only reference is from old space.
		young := h.Allocate(p, object.Nil, 1, object.FmtPointers)
		h.StoreNoCheck(young, 0, object.FromInt(123))
		h.Store(p, old, 0, young)
		if h.RememberedCount() != 1 {
			t.Fatalf("remembered = %d, want 1", h.RememberedCount())
		}
		// A second store must not duplicate the entry.
		h.Store(p, old, 1, young)
		if h.RememberedCount() != 1 {
			t.Fatalf("remembered = %d after second store, want 1", h.RememberedCount())
		}
		h.Scavenge(p)
		got := h.Fetch(old, 0)
		if !h.InNewSpace(got) {
			t.Fatal("young object not in new space after scavenge")
		}
		if h.Fetch(got, 0).Int() != 123 {
			t.Fatal("young object contents lost")
		}
	})
}

func TestRememberedSetShrinksWhenRefsDie(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var old object.OOP
		h.AddRoot(&old)
		old = h.AllocateNoGC(object.Nil, 1, object.FmtPointers)
		young := h.Allocate(p, object.Nil, 0, object.FmtPointers)
		h.Store(p, old, 0, young)
		if h.RememberedCount() != 1 {
			t.Fatal("not remembered")
		}
		// Overwrite the reference; after the next scavenge the old
		// object no longer refers to new space and must leave the set.
		h.Store(p, old, 0, object.Nil)
		h.Scavenge(p)
		if h.RememberedCount() != 0 {
			t.Fatalf("remembered = %d after refs died, want 0", h.RememberedCount())
		}
		if h.Header(old).Remembered() {
			t.Fatal("remembered bit still set")
		}
	})
}

func TestSmallIntStoresAreNotRemembered(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		old := h.AllocateNoGC(object.Nil, 1, object.FmtPointers)
		h.Store(p, old, 0, object.FromInt(5))
		if h.RememberedCount() != 0 {
			t.Fatal("SmallInteger store entered the entry table")
		}
	})
}

func TestIdentityHashStableAcrossScavenge(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		hs := h.Handles(p)
		defer hs.Close()
		o := h.Allocate(p, object.Nil, 1, object.FmtPointers)
		hd := hs.Add(o)
		h1 := h.IdentityHash(o)
		if h1 == 0 {
			t.Fatal("hash 0 assigned")
		}
		if h.IdentityHash(o) != h1 {
			t.Fatal("hash changed on re-read")
		}
		h.Scavenge(p)
		if h.IdentityHash(hd.Get()) != h1 {
			t.Fatal("hash changed after move")
		}
	})
}

func TestIdentityHashDistinct(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		a := h.AllocateNoGC(object.Nil, 0, object.FmtPointers)
		b := h.AllocateNoGC(object.Nil, 0, object.FmtPointers)
		if h.IdentityHash(a) == h.IdentityHash(b) {
			t.Fatal("hashes collide immediately")
		}
	})
}

func TestLargeObjectsGoToOldSpace(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		// survivor = 512, so >= 128 words is "large".
		o := h.Allocate(p, object.Nil, 200, object.FmtPointers)
		if !h.InOldSpace(o) {
			t.Fatal("large object not in old space")
		}
		if h.FieldCount(o) != 200 {
			t.Fatalf("FieldCount = %d", h.FieldCount(o))
		}
	})
}

func TestBytesRoundTripAcrossScavenge(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		hs := h.Handles(p)
		defer hs.Close()
		o := h.Allocate(p, object.Nil, 13, object.FmtBytes)
		h.WriteBytes(o, []byte("hello, world!"))
		hd := hs.Add(o)
		h.Scavenge(p)
		if got := string(h.Bytes(hd.Get())); got != "hello, world!" {
			t.Fatalf("bytes after scavenge = %q", got)
		}
	})
}

func TestTortureGCManyObjects(t *testing.T) {
	cfg := smallConfig()
	cfg.TortureGC = true
	testHeap(t, cfg, func(h *Heap, p *firefly.Proc) {
		var root object.OOP
		h.AddRoot(&root)
		root = object.Nil
		// Build a list under constant scavenging; every allocation
		// moves everything.
		for i := 0; i < 30; i++ {
			hs := h.Handles(p)
			node := h.Allocate(p, object.Nil, 2, object.FmtPointers)
			h.StoreNoCheck(node, 0, object.FromInt(int64(i)))
			h.Store(p, node, 1, root)
			root = node
			hs.Close()
		}
		n := root
		for i := 29; i >= 0; i-- {
			if h.Fetch(n, 0).Int() != int64(i) {
				t.Fatalf("node %d corrupted", i)
			}
			n = h.Fetch(n, 1)
		}
		h.CheckInvariants()
		if h.Stats().Scavenges < 30 {
			t.Fatalf("torture mode ran %d scavenges", h.Stats().Scavenges)
		}
	})
}

func TestPerProcessorAllocationPolicy(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = AllocPerProcessor
	m := firefly.New(3, firefly.DefaultCosts())
	h := New(m, cfg)
	roots := make([]object.OOP, 3)
	for i := range roots {
		h.AddRoot(&roots[i])
	}
	for i := 0; i < 3; i++ {
		m.Start(i, func(p *firefly.Proc) {
			for k := 0; k < 100; k++ {
				hs := h.Handles(p)
				node := h.Allocate(p, object.Nil, 2, object.FmtPointers)
				h.StoreNoCheck(node, 0, object.FromInt(int64(k)))
				h.Store(p, node, 1, roots[p.ID()])
				roots[p.ID()] = node
				hs.Close()
				p.CheckYield()
			}
		})
	}
	if r := m.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("machine stopped with %v", r)
	}
	if h.Stats().TLABRefills == 0 {
		t.Fatal("no TLAB refills recorded")
	}
	for i := range roots {
		n := roots[i]
		for k := 99; k >= 0; k-- {
			if h.Fetch(n, 0).Int() != int64(k) {
				t.Fatalf("proc %d node %d corrupted", i, k)
			}
			n = h.Fetch(n, 1)
		}
	}
}

func TestConcurrentAllocationContentionIsEmergent(t *testing.T) {
	// Under the serialized policy many processors allocating must
	// contend on the alloc lock; under per-processor chunks they must
	// contend far less. This is the paper's §4 hypothesis.
	contentions := func(policy AllocPolicy) uint64 {
		cfg := smallConfig()
		cfg.EdenWords = 4096
		cfg.Policy = policy
		m := firefly.New(4, firefly.DefaultCosts())
		m.SetQuantum(20)
		h := New(m, cfg)
		for i := 0; i < 4; i++ {
			m.Start(i, func(p *firefly.Proc) {
				for k := 0; k < 300; k++ {
					h.Allocate(p, object.Nil, 4, object.FmtPointers)
					p.CheckYield()
				}
			})
		}
		m.Run(nil)
		for _, ls := range m.LockStats() {
			if ls.Name == "alloc" {
				return ls.Contentions
			}
		}
		return 0
	}
	serial := contentions(AllocSerialized)
	tlab := contentions(AllocPerProcessor)
	if serial == 0 {
		t.Fatal("no contention under serialized allocation")
	}
	if tlab*2 >= serial {
		t.Fatalf("per-processor contention %d not well below serialized %d", tlab, serial)
	}
}

func TestOOMPanics(t *testing.T) {
	cfg := smallConfig()
	cfg.OldWords = 1024
	testHeap(t, cfg, func(h *Heap, p *firefly.Proc) {
		defer func() {
			if _, ok := recover().(OOMError); !ok {
				t.Error("expected OOMError panic")
			}
		}()
		for i := 0; i < 100; i++ {
			h.AllocateNoGC(object.Nil, 63, object.FmtPointers)
		}
	})
}

func TestRootFuncsAreVisited(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		table := make([]object.OOP, 0, 4)
		h.AddRootFunc(func(visit func(*object.OOP)) {
			for i := range table {
				visit(&table[i])
			}
		})
		o := h.Allocate(p, object.Nil, 1, object.FmtPointers)
		h.StoreNoCheck(o, 0, object.FromInt(31))
		table = append(table, o)
		h.Scavenge(p)
		if table[0] == o {
			t.Fatal("root func slot not updated")
		}
		if h.Fetch(table[0], 0).Int() != 31 {
			t.Fatal("object behind root func lost")
		}
	})
}

func TestPrePostScavengeHooks(t *testing.T) {
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var order []string
		h.OnPreScavenge(func() { order = append(order, "pre") })
		h.OnPostScavenge(func() { order = append(order, "post") })
		h.Scavenge(p)
		if len(order) != 2 || order[0] != "pre" || order[1] != "post" {
			t.Fatalf("hook order = %v", order)
		}
	})
}

func TestScavengeStallsOtherProcessors(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		stall := stallBeside(parallel, 5000, 3, func(h *Heap, p *firefly.Proc) {
			var root object.OOP
			h.AddRoot(&root)
			for i := 0; i < 40; i++ {
				root = h.Allocate(p, object.Nil, 40, object.FmtPointers)
				p.CheckYield()
			}
			h.Scavenge(p)
		})
		if stall == 0 {
			t.Errorf("parallel=%v: processor 1 never stalled for the scavenge", parallel)
		}
	}
}

// stallBeside runs collect on processor 0 of a two-processor machine and
// returns processor 1's stall. On the deterministic machine processor 1
// takes steps steps of tick ticks each. Under -parallel it only yields
// until collect returns, so it is parked at every rendezvous with its
// clock behind processor 0's, and any stall on it was booked by the
// collecting processor.
func stallBeside(parallel bool, steps int, tick firefly.Time, collect func(h *Heap, p *firefly.Proc)) firefly.Time {
	m := firefly.New(2, firefly.DefaultCosts())
	cfg := smallConfig()
	cfg.Parallel = parallel
	h := New(m, cfg)
	var collected atomic.Bool
	m.Start(0, func(p *firefly.Proc) {
		collect(h, p)
		collected.Store(true)
	})
	m.Start(1, func(p *firefly.Proc) {
		if parallel {
			for !collected.Load() {
				p.Yield()
			}
			return
		}
		for i := 0; i < steps; i++ {
			p.Advance(tick)
			p.CheckYield()
		}
	})
	m.SetParallel(parallel)
	m.Run(nil)
	return m.Proc(1).Stats().Stall
}

func TestChainedScavengesDeepGraph(t *testing.T) {
	// A binary tree bigger than a survivor space forces tenuring via
	// overflow; the graph must stay intact across repeated scavenges.
	testHeap(t, smallConfig(), func(h *Heap, p *firefly.Proc) {
		var root object.OOP
		h.AddRoot(&root)
		var build func(depth int) object.OOP
		build = func(depth int) object.OOP {
			if depth == 0 {
				return object.FromInt(int64(depth))
			}
			hs := h.Handles(p)
			defer hs.Close()
			l := hs.Add(build(depth - 1))
			r := hs.Add(build(depth - 1))
			n := h.Allocate(p, object.Nil, 2, object.FmtPointers)
			h.Store(p, n, 0, l.Get())
			h.Store(p, n, 1, r.Get())
			return n
		}
		root = build(7) // 127 nodes * 4 words
		for i := 0; i < 5; i++ {
			h.Scavenge(p)
		}
		var count func(o object.OOP) int
		count = func(o object.OOP) int {
			if o.IsInt() {
				return 0
			}
			return 1 + count(h.Fetch(o, 0)) + count(h.Fetch(o, 1))
		}
		if got := count(root); got != 127 {
			t.Fatalf("tree nodes = %d, want 127", got)
		}
		h.CheckInvariants()
	})
}
