package serve

import (
	"math"
	"runtime"
	"testing"

	"mst/internal/compiler"
	"mst/internal/core"
	"mst/internal/object"
)

// TestEvalHostAllocations pins the Go allocations of one request on a
// warm tenant — clone materialized, every catalog source compiled once —
// per catalog kind. The bounds are this path's measured counts, not
// budgets with slack: what is left is the wrapped source string, the
// Env and Do closures, the method's category and source strings on
// their way into the image, and the answer's printString on its way out.
// A change that adds an allocation per request fails here, before it
// shows up as drift in the benchmark's gohost.mallocs_per_pass.
func TestEvalHostAllocations(t *testing.T) {
	s := newTestServer(t, Config{Tenants: 1})
	bounds := map[string]float64{"bump": 14, "digest": 14, "note": 15, "sum": 13, "alloc": 14}
	for _, k := range Catalog {
		if _, err := s.Eval(0, k.Source); err != nil {
			t.Fatalf("warm-up %s: %v", k.Name, err)
		}
	}
	for _, k := range Catalog {
		bound, ok := bounds[k.Name]
		if !ok {
			t.Fatalf("catalog kind %q has no allocation bound", k.Name)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := s.Eval(0, k.Source); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		})
		if got > bound {
			t.Errorf("%s: %.0f Go allocations per request, bound %.0f", k.Name, got, bound)
		}
	}
}

// TestCloneReusesReleasedHeap holds a tenant clone to the released heap
// array: once a clone of the checkpoint has been shut down, the next one
// takes its array instead of making (and zeroing) a new one, so the Go
// allocation of a clone is its tables and interpreter state — under an
// eighth of the heap it would otherwise allocate.
func TestCloneReusesReleasedHeap(t *testing.T) {
	cp := testCheckpoint(t)
	warm, err := core.NewFromCheckpoint(1, cp)
	if err != nil {
		t.Fatal(err)
	}
	hc := warm.VM.H.Config()
	heapBytes := 8 * uint64(object.FirstFreeAddress+hc.OldWords+2*hc.SurvivorWords+hc.EdenWords)
	warm.Shutdown()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := core.NewFromCheckpoint(1, cp)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("clone: %d bytes allocated, heap %d bytes", got, heapBytes)
	if got >= heapBytes/8 {
		t.Errorf("a clone after a shut-down clone allocated %d bytes; want under %d (an eighth of its %d-byte heap)",
			got, heapBytes/8, heapBytes)
	}
}

// makeRoomFront is OrderedCollection>>makeRoomFront from the kernel
// library: temporaries, instance variables, one keyword send over three
// lines.
const makeRoomFront = `makeRoomFront
	| bigger n |
	n := self size.
	bigger := Array new: (elements size * 2 max: 4).
	bigger replaceFrom: elements size + firstIndex
		to: elements size + firstIndex + n - 1
		with: elements startingAt: firstIndex.
	firstIndex := elements size + firstIndex.
	lastIndex := firstIndex + n - 1.
	elements := bigger`

// TestCompileHostAllocations pins the Go allocations of compiling each
// catalog source as a doIt, which a cold request pays, and one kernel
// method, which the first boot in a process pays some five hundred times
// (later boots take every method from the method memo), against a MapEnv as
// the benchmark's compiler probes use. The bounds are the measured counts:
// what is left is the AST's nodes and lists, the code and literal frame as
// they grow, and the Method. A change that copies the source or builds a
// token's text again fails here before it shows in setup_s.
func TestCompileHostAllocations(t *testing.T) {
	env := compiler.MapEnv{
		InstVars: []string{"elements", "firstIndex", "lastIndex"},
		Globals:  map[string]bool{"Session": true, "Array": true},
	}
	bounds := map[string]float64{"bump": 13, "digest": 13, "note": 17, "sum": 31, "alloc": 47}
	for _, k := range Catalog {
		bound, ok := bounds[k.Name]
		if !ok {
			t.Fatalf("catalog kind %q has no allocation bound", k.Name)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := compiler.CompileExpression(k.Source, env); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		})
		if got > bound {
			t.Errorf("%s: %.0f Go allocations per compile, bound %.0f", k.Name, got, bound)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := compiler.CompileMethod(makeRoomFront, env); err != nil {
			t.Fatal(err)
		}
	})
	if bound := 82.0; got > bound {
		t.Errorf("makeRoomFront: %.0f Go allocations per compile, bound %.0f", got, bound)
	}
}

// TestBootHostAllocations pins the Go allocations of a warm
// BootCheckpoint, every method already in the process-wide method memo,
// as TestCompileHostAllocations pins a compile: the bound is the measured
// count. Most of what is left is each install's InstallSource and Do
// closures, and the Go strings the Env reads back out of the image
// (instance variable names, global names) to answer a compile's
// questions again. Some boots allocate a few objects more, depending on
// when the Go GC ran (with GOGC=off nearly every boot reads the floor),
// so the pinned count is the fewest of thirty.
func TestBootHostAllocations(t *testing.T) {
	if _, err := BootCheckpoint(); err != nil {
		t.Fatal(err)
	}
	fewest := uint64(math.MaxUint64)
	for i := 0; i < 30; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := BootCheckpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if bound := uint64(6390); fewest > bound {
		t.Errorf("warm BootCheckpoint: %d Go allocations, bound %d", fewest, bound)
	}
}
