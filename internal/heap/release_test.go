package heap_test

import (
	"bytes"
	"testing"

	"mst/internal/core"
	"mst/internal/heap"
	"mst/internal/interp"
	"mst/internal/object"
)

// releaseChurn tenures a few hundred arrays, puts a large object straight
// into old space, drops the tenured arrays and ends in a full collection,
// which slides the large object down over them and lowers old.next.
const releaseChurn = `| keep big |
keep := Array new: 300.
1 to: 300 do: [:i | keep at: i put: (Array new: 20)].
1 to: 2000 do: [:i | Array new: 30].
6 timesRepeat: [Smalltalk scavenge].
big := Array new: 2000.
1 to: 2000 do: [:i | big at: i put: i].
keep := nil.
Smalltalk garbageCollect.
big size`

// releaseConfig is a default MS system on a smaller old space.
func releaseConfig(oldWords int) core.Config {
	cfg := core.DefaultConfig()
	cfg.OldWords = oldWords
	return cfg
}

func heapWords(cfg core.Config) int {
	return heap.Words(heap.Config{OldWords: cfg.OldWords, EdenWords: cfg.EdenWords, SurvivorWords: cfg.SurvivorWords})
}

func boot(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func nonZero(ws []uint64) int {
	n := 0
	for _, w := range ws {
		if w != 0 {
			n++
		}
	}
	return n
}

// TestReleasedHeapIsZero holds Release to its invariant: the array a
// shut-down system hands back has no non-zero word, whatever collectors,
// host mode and construction path wrote it, including the words a
// compaction left above the lowered old.next. It is what lets New take
// a released array without clearing it.
func TestReleasedHeapIsZero(t *testing.T) {
	const oldWords = 256 << 10
	cloneOf := func(t *testing.T, cfg core.Config) *core.System {
		base := boot(t, cfg)
		cp, err := base.Checkpoint()
		base.Shutdown()
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		s, err := core.NewFromCheckpoint(1, cp)
		if err != nil {
			t.Fatalf("NewFromCheckpoint: %v", err)
		}
		return s
	}
	loadOf := func(t *testing.T, cfg core.Config) *core.System {
		base := boot(t, cfg)
		var img bytes.Buffer
		err := base.SaveImage(&img)
		base.Shutdown()
		if err != nil {
			t.Fatalf("SaveImage: %v", err)
		}
		s, err := core.LoadImage(1, &img)
		if err != nil {
			t.Fatalf("LoadImage: %v", err)
		}
		return s
	}
	for _, row := range []struct {
		name string
		edit func(*core.Config)
		make func(*testing.T, core.Config) *core.System
	}{
		{"BS", func(c *core.Config) { c.Mode, c.Processors = core.ModeBaseline, 1 }, boot},
		{"MS", func(*core.Config) {}, boot},
		{"ParScavenge", func(c *core.Config) { c.Processors, c.ParScavenge, c.Parallel = 3, true, true }, boot},
		{"ConcMark", func(c *core.Config) { c.ConcMark = true }, boot},
		{"Parallel", func(c *core.Config) { c.Processors, c.Parallel = 3, true }, boot},
		{"JIT+ICPoly", func(c *core.Config) { c.JIT, c.InlineCache, c.CacheWays = true, interp.ICPoly, 2 }, boot},
		{"FreeCtxSharedLocked", func(c *core.Config) { c.FreeContexts = interp.FreeCtxSharedLocked }, boot},
		{"Clone", func(*core.Config) {}, cloneOf},
		{"LoadImage", func(*core.Config) {}, loadOf},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := releaseConfig(oldWords)
			row.edit(&cfg)
			s := row.make(t, cfg)
			if n, err := s.EvaluateInt(releaseChurn); err != nil || n != 2000 {
				s.Shutdown()
				t.Fatalf("churn = %d, %v", n, err)
			}
			st := s.VM.H.Stats()
			if st.TenuredObjects == 0 || st.ReclaimedOldWords == 0 {
				s.Shutdown()
				t.Fatalf("churn tenured %d objects and reclaimed %d old words; want both > 0",
					st.TenuredObjects, st.ReclaimedOldWords)
			}
			mem := heap.Mem(s.VM.H)
			if next := object.FirstFreeAddress + st.OldWordsInUse; !cfg.ConcMark &&
				nonZero(mem[next:next+st.ReclaimedOldWords]) == 0 {
				// The sweep of ConcMark reclaims in place; every other
				// row compacts, and must leave old.next below written words.
				s.Shutdown()
				t.Fatalf("the compaction left no written word above old.next")
			}
			words := len(mem)
			waiting := heap.ReleasedArrays(words)
			s.Shutdown()
			if n := nonZero(mem); n != 0 {
				t.Errorf("released array holds %d non-zero words", n)
			}
			if got := heap.ReleasedArrays(words); got != waiting+1 {
				t.Errorf("free list holds %d arrays of %d words after Shutdown; want %d", got, words, waiting+1)
			}
			if heap.Mem(s.VM.H) != nil {
				t.Errorf("a shut-down heap still has its array")
			}
		})
	}
}

// TestReleasedHeapLifecycle: a process's first boot makes its array, a
// shut-down system's array goes to the next boot of its geometry and to
// no other, two live systems never share one, and a shut-down heap
// panics on access instead of reading a successor's words.
func TestReleasedHeapLifecycle(t *testing.T) {
	cfg := releaseConfig(192 << 10) // a geometry no other test uses
	words := heapWords(cfg)
	heap.DropReleased(words)

	a := boot(t, cfg)
	memA := heap.Mem(a.VM.H)
	if len(memA) != words || heap.ReleasedArrays(words) != 0 {
		t.Fatalf("first boot: %d-word array, %d on the free list; want %d and 0",
			len(memA), heap.ReleasedArrays(words), words)
	}
	a.Shutdown()
	a.Shutdown()
	if got := heap.ReleasedArrays(words); got != 1 {
		t.Fatalf("after two Shutdowns the free list holds %d arrays; want 1", got)
	}
	for name, access := range map[string]func(){
		"Header":       func() { a.VM.H.Header(object.Nil) },
		"Fetch":        func() { a.VM.H.Fetch(object.Nil, 0) },
		"StoreNoCheck": func() { a.VM.H.StoreNoCheck(object.Nil, 0, object.Nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a shut-down heap did not panic", name)
				}
			}()
			access()
		}()
	}

	b := boot(t, cfg)
	defer b.Shutdown()
	c := boot(t, cfg)
	defer c.Shutdown()
	memB, memC := heap.Mem(b.VM.H), heap.Mem(c.VM.H)
	if &memB[0] != &memA[0] {
		t.Errorf("the boot after a Shutdown did not take the released array")
	}
	if &memC[0] == &memA[0] || &memC[0] == &memB[0] {
		t.Errorf("two live systems share one array")
	}
	if heap.ReleasedArrays(words) != 0 {
		t.Errorf("the free list kept an array it handed out")
	}
	if _, err := b.EvaluateRaw("Smalltalk at: #Shared put: 42"); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Evaluate("Smalltalk includesKey: #Shared"); err != nil || got != "false" {
		t.Errorf("a global stored in one system is visible from another: %q, %v", got, err)
	}
}
