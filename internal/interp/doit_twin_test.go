package interp_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mst/internal/core"
	"mst/internal/firefly"
	"mst/internal/interp"
	"mst/internal/serve"
)

// TestDoItMemoTwinSystems: two clones of one checkpoint serve the same
// thousand requests — the request catalog, 200 of each kind, in a seeded
// shuffle — one through the process-wide memo, the other with the memo
// emptied before every call. A memo hit skips host work only: every
// answer, the virtual clock after every request, the counters and the
// final heap are equal.
func TestDoItMemoTwinSystems(t *testing.T) {
	cp, err := serve.BootCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for k := range serve.Catalog {
		for i := 0; i < 200; i++ {
			order = append(order, k)
		}
	}
	rand.New(rand.NewSource(1988)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	type reading struct {
		answer string
		clock  firefly.Time
	}
	// serveAll answers every request of order on a fresh clone, emptying the
	// memo first when plain, and reports the clone, its readings and the
	// compiles it ran.
	serveAll := func(plain bool) (*core.System, []reading, int) {
		sys, err := core.NewFromCheckpoint(1, cp)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Shutdown)
		misses := interp.DoItMemoMisses()
		rs := make([]reading, len(order))
		for i, k := range order {
			if plain {
				interp.DropDoItMemo()
			}
			src := serve.Catalog[k].Source
			if rs[i].answer, err = sys.Evaluate(src); err != nil {
				t.Fatalf("request %d (%s): %v", i, src, err)
			}
			rs[i].clock = sys.VirtualTime()
		}
		return sys, rs, interp.DoItMemoMisses() - misses
	}
	memo, withMemo, memoCompiles := serveAll(false)
	plain, without, plainCompiles := serveAll(true)
	if memoCompiles > len(serve.Catalog) || plainCompiles != len(order) {
		t.Fatalf("%d compiles with the memo (want at most one per kind, %d), %d without (want %d)",
			memoCompiles, len(serve.Catalog), plainCompiles, len(order))
	}
	for i, k := range order {
		if withMemo[i] != without[i] {
			t.Fatalf("request %d (%s): %+v with the memo, %+v without", i, serve.Catalog[k].Source, withMemo[i], without[i])
		}
	}
	if !reflect.DeepEqual(memo.Stats(), plain.Stats()) {
		t.Fatalf("counters differ:\n%+v\n%+v", memo.Stats(), plain.Stats())
	}
	var imgA, imgB bytes.Buffer
	if err := memo.SaveImage(&imgA); err != nil {
		t.Fatal(err)
	}
	if err := plain.SaveImage(&imgB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgA.Bytes(), imgB.Bytes()) {
		t.Fatalf("heap images differ (%d and %d bytes)", imgA.Len(), imgB.Len())
	}
}

// TestWarmBootCompilesNoDoIt: file-in evaluates its doIts as a request is
// evaluated, through the process-wide doIt memo, so only the first boot
// in a process compiles them; and a catalog request one clone of a
// checkpoint compiled is compiled by no later clone.
func TestWarmBootCompilesNoDoIt(t *testing.T) {
	interp.DropDoItMemo()
	boot := func() *core.Checkpoint {
		t.Helper()
		cp, err := serve.BootCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	misses := interp.DoItMemoMisses()
	boot()
	cold := interp.DoItMemoMisses() - misses
	cp := boot()
	if warm := interp.DoItMemoMisses() - misses - cold; cold == 0 || warm != 0 {
		t.Fatalf("a cold boot compiled %d doIts, a warm one %d; want some and none", cold, warm)
	}
	for i := 0; i < 2; i++ {
		sys, err := core.NewFromCheckpoint(1, cp)
		if err != nil {
			t.Fatal(err)
		}
		misses := interp.DoItMemoMisses()
		for _, k := range serve.Catalog {
			if _, err := sys.Evaluate(k.Source); err != nil {
				t.Fatalf("clone %d, %s: %v", i, k.Name, err)
			}
		}
		sys.Shutdown()
		if n := interp.DoItMemoMisses() - misses; i > 0 && n != 0 {
			t.Fatalf("the second clone compiled %d of the catalog's %d requests", n, len(serve.Catalog))
		}
	}
}
