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
// budgets with slack: all that is left is the answer's printString on
// its way out (the wrapped source is assembled in host scratch and found
// in the doIt memo without a Go string, and Do and the compile env
// allocate nothing). A change that adds an allocation per request fails
// here, before it shows up as drift in the benchmark's
// gohost.mallocs_per_pass.
func TestEvalHostAllocations(t *testing.T) {
	s := newTestServer(t, Config{Tenants: 1})
	bounds := map[string]float64{"bump": 1, "digest": 1, "note": 1, "sum": 1, "alloc": 1}
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

// TestBootHostAllocations pins the Go allocations of a warm boot, every
// method already in the process-wide method memo, as
// TestCompileHostAllocations pins a compile: the bound is the measured
// count. Three systems are pinned: BootCheckpoint (one processor, the
// serve image), the 5-processor MS system, whose method-cache replicas
// every install flushes, and one tenant clone of the serve checkpoint.
// An install or a doIt allocates nothing of its own (Do queues a bound
// method value, a compile's questions compare names in the heap, and a
// symbol is interned by its bytes), a warm boot reads no source (the
// file-in plans) and compiles no doIt (the process-wide doIt memo), so
// what a boot has left is Genesis, the run of each file-in doIt, each
// class definition, and the boot's machine, heap and interpreter tables;
// a clone has only the tables. Some boots
// allocate a few objects more, depending on when the Go GC ran (with
// GOGC=off nearly every boot reads the floor), so the pinned count is
// the fewest of thirty.
func TestBootHostAllocations(t *testing.T) {
	cp, err := BootCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		boot  func() error
		bound uint64
	}{
		{"checkpoint", func() error { _, err := BootCheckpoint(); return err }, 256},
		{"ms5", func() error {
			s, err := core.NewSystem(core.DefaultConfig())
			if err == nil {
				s.Shutdown()
			}
			return err
		}, 339},
		{"clone", func() error {
			s, err := core.NewFromCheckpoint(1, cp)
			if err == nil {
				s.Shutdown()
			}
			return err
		}, 69},
	} {
		t.Run(row.name, func(t *testing.T) {
			if err := row.boot(); err != nil {
				t.Fatal(err)
			}
			fewest := uint64(math.MaxUint64)
			for i := 0; i < 30; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := row.boot(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				fewest = min(fewest, after.Mallocs-before.Mallocs)
			}
			t.Logf("warm boot: %d Go allocations", fewest)
			if fewest > row.bound {
				t.Errorf("warm boot: %d Go allocations, bound %d", fewest, row.bound)
			}
		})
	}
}
