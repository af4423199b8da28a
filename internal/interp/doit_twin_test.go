package interp_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mst/internal/core"
	"mst/internal/serve"
)

// TestDoItMemoTwinSystems: two clones of one checkpoint serve the same
// thousand requests — the request catalog, 200 of each kind, in a seeded
// shuffle — one through the memo, the other with the memo emptied before
// every call. A memo hit skips host work only: every answer, the virtual
// clock after every request, and the final heap are equal.
func TestDoItMemoTwinSystems(t *testing.T) {
	cp, err := serve.BootCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *core.System {
		sys, err := core.NewFromCheckpoint(1, cp)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Shutdown)
		return sys
	}
	memo, plain := clone(), clone()

	var order []int
	for k := range serve.Catalog {
		for i := 0; i < 200; i++ {
			order = append(order, k)
		}
	}
	rand.New(rand.NewSource(1988)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	for i, k := range order {
		src := serve.Catalog[k].Source
		a, errA := memo.Evaluate(src)
		plain.VM.DropDoItMemo()
		b, errB := plain.Evaluate(src)
		if errA != nil || errB != nil {
			t.Fatalf("request %d (%s): %v / %v", i, src, errA, errB)
		}
		if a != b {
			t.Fatalf("request %d (%s): %q with the memo, %q without", i, src, a, b)
		}
		if ta, tb := memo.VirtualTime(), plain.VirtualTime(); ta != tb {
			t.Fatalf("request %d (%s): virtual time %d with the memo, %d without", i, src, ta, tb)
		}
	}
	if n := memo.VM.DoItMemoLen(); n != len(serve.Catalog) {
		t.Fatalf("memo holds %d entries, want one per catalog kind (%d)", n, len(serve.Catalog))
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

// TestBootLeavesTheDoItMemoEmpty: file-in runs each expression chunk from
// the one parse it already made, so a boot memoizes none of them.
func TestBootLeavesTheDoItMemoEmpty(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.OldWords = 128 << 10
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	if n := sys.VM.DoItMemoLen(); n != 0 {
		t.Fatalf("a boot left %d doIts in the memo", n)
	}
}
