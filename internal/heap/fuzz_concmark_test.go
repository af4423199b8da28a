package heap

import (
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/sanitize"
)

// The differential concurrent-marking fuzzer: a seeded random
// object-graph builder and mutator runs the identical operation
// sequence through the serial stop-the-world collector and the SATB
// concurrent marker, then compares the surviving graphs — live set,
// per-object tenure decision and age, remembered-set contents — object
// by object, reusing the address-free canonical form from the scavenge
// fuzzer.
//
// The concurrent run opens a mark cycle a third of the way into the
// operation stream and finalizes it two thirds in, draining bounded
// slices between the mutations. Everything the SATB design has to
// survive happens in that window: pointer deletions erase the only
// copy of a snapshot-reachable edge (the deletion barrier's case),
// old→old and old→young edges are rewired, roots are dropped, and
// explicit scavenges move young objects and tenure into old space
// between slices. The serial run replays the same operations with a
// plain scavenge at the cycle-open index (matching the snapshot
// window's internal scavenge), so both runs see identical ages.
//
// Divergence is then forced to converge: each run ends with a full
// collection and a trailing scavenge. The concurrent cycle may float
// garbage that dies mid-mark (SATB keeps the snapshot alive by
// design); the final quiescent cycle collects it, so the surviving
// graphs must be exactly equal.

// fuzzConcOps drives the seeded workload. conc selects the manually
// driven mid-stream mark cycle; the operation sequence is a pure
// function of the seed either way.
func fuzzConcOps(h *Heap, p *firefly.Proc, seed int64, conc bool) (young, olds []object.OOP) {
	// Unlike the scavenge fuzzer, full collections reclaim dead old
	// objects here, so the old anchors must be genuine roots: garbage
	// is created only by explicitly dropping an anchor (or a young
	// root), and dropped objects are never touched again.
	h.AddRootFunc(func(visit func(*object.OOP)) {
		for i := range young {
			visit(&young[i])
		}
		for i := range olds {
			visit(&olds[i])
		}
	})
	rng := rand.New(rand.NewSource(seed))
	nextID := int64(1)
	stamp := func(o object.OOP) object.OOP {
		h.StoreNoCheck(o, 0, object.FromInt(nextID))
		nextID++
		return o
	}

	n := 150 + rng.Intn(151)
	k1, k2 := n/3, (2*n)/3
	for op := 0; op < n; op++ {
		if op == k1 {
			if conc {
				h.startConcMark(p)
			} else {
				// The snapshot window scavenges; the serial run must
				// too, so ages and tenure decisions stay aligned.
				h.Scavenge(p)
			}
		}
		if op == k2 && conc {
			h.finishConcMark(p)
			h.concMarkSweep(p)
		}
		if conc && h.cm.active.Load() && op%2 == 0 {
			// One bounded slice between mutator quanta.
			h.concMarkSlice(p, 8, false)
		}
		switch r := rng.Intn(100); {
		case r < 36: // allocate a young object, wiring some edges
			fields := 2 + rng.Intn(5)
			o := stamp(h.Allocate(p, object.Nil, fields, object.FmtPointers))
			for i := 1; i < fields; i++ {
				if len(young) > 0 && rng.Intn(100) < 40 {
					h.Store(p, o, i, young[rng.Intn(len(young))])
				}
			}
			young = append(young, o)
		case r < 47: // young→young edge
			if len(young) >= 2 {
				a := young[rng.Intn(len(young))]
				b := young[rng.Intn(len(young))]
				h.Store(p, a, 1+rng.Intn(h.FieldCount(a)-1), b)
			}
		case r < 55: // drop a young root: the subgraph may become garbage
			if len(young) > 0 {
				k := rng.Intn(len(young))
				young = append(young[:k], young[k+1:]...)
			}
		case r < 64: // allocate an old object referencing new space
			fields := 2 + rng.Intn(3)
			o := stamp(h.AllocateNoGC(object.Nil, fields, object.FmtPointers))
			if len(young) > 0 {
				h.Store(p, o, 1+rng.Intn(fields-1), young[rng.Intn(len(young))])
			}
			if len(olds) > 0 && rng.Intn(100) < 40 {
				// Hang it off an anchor instead of rooting it: reachable
				// only through that one field, so it stays white at the
				// snapshot until a slice traces it — and a later rewrite
				// of the field is exactly the deletion-barrier case.
				a := olds[rng.Intn(len(olds))]
				h.Store(p, a, 1+rng.Intn(h.FieldCount(a)-1), o)
			} else {
				olds = append(olds, o)
			}
		case r < 72: // old→young edge (or severing one with nil)
			if len(olds) > 0 && len(young) > 0 {
				o := olds[rng.Intn(len(olds))]
				v := young[rng.Intn(len(young))]
				if rng.Intn(100) < 20 {
					v = object.Nil
				}
				h.Store(p, o, 1+rng.Intn(h.FieldCount(o)-1), v)
			}
		case r < 80: // old→old edge, or deleting one: the SATB hard case
			if len(olds) >= 2 {
				o := olds[rng.Intn(len(olds))]
				v := olds[rng.Intn(len(olds))]
				if rng.Intn(100) < 30 {
					v = object.Nil
				}
				h.Store(p, o, 1+rng.Intn(h.FieldCount(o)-1), v)
			}
		case r < 86: // drop an old anchor: old-space garbage for the
			// sweep (or the compactor) to reclaim
			if len(olds) > 0 {
				k := rng.Intn(len(olds))
				olds = append(olds[:k], olds[k+1:]...)
			}
		case r < 94: // an edge a collector must leave alone, or a raw body
			fuzzExotic(h, p, rng, &nextID, young, olds)
		default: // explicit scavenge, including between mark slices
			h.Scavenge(p)
		}
	}

	// Converge: a full collection (the concurrent heap runs a fresh
	// quiescent cycle — no mutator interleaves, so it is as precise as
	// the serial mark-compact), a remembered-set-refreshing mutation,
	// and a trailing scavenge.
	h.FullCollect(p)
	if len(olds) > 0 && len(young) > 0 {
		h.Store(p, olds[0], 1, young[len(young)-1])
	}
	h.Scavenge(p)
	h.CheckInvariants()
	return young, olds
}

// runConcFuzzDet runs one seeded workload deterministically on a
// four-processor machine (driver on processor 0) and returns the
// canonical surviving state. The sanitizer rides along and must stay
// clean — it is watching the deletion barrier and the tri-color
// invariant in the concurrent runs.
func runConcFuzzDet(t *testing.T, seed int64, conc bool) (fuzzResult, Stats) {
	t.Helper()
	cfg := fuzzConfig()
	cfg.ConcMark = conc
	m := firefly.New(4, firefly.DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	h := New(m, cfg)
	var res fuzzResult
	m.Start(0, func(p *firefly.Proc) {
		young, olds := fuzzConcOps(h, p, seed, conc)
		res = canonicalize(t, h, young, olds)
	})
	if r := m.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("seed %d (concmark=%v): machine stopped with %v", seed, conc, r)
	}
	if vs := san.Violations(); len(vs) != 0 {
		t.Fatalf("seed %d (concmark=%v): sanitizer violations:\n%s", seed, conc, san.Report())
	}
	return res, h.Stats()
}

// TestConcMarkFuzzDifferential is the differential fuzzer: 200 seeds,
// each replayed through the serial collector and the concurrent
// marker, with the surviving graphs compared exactly. A failure names
// the seed.
func TestConcMarkFuzzDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	var cycles, shades, marked uint64
	for seed := int64(0); seed < int64(seeds); seed++ {
		serial, _ := runConcFuzzDet(t, seed, false)
		conc, st := runConcFuzzDet(t, seed, true)
		if !reflect.DeepEqual(serial, conc) {
			t.Fatalf("seed %d: serial and concurrent collectors diverge\nserial:     %+v\nconcurrent: %+v",
				seed, serial, conc)
		}
		if st.ConcMarkCycles != 2 {
			t.Fatalf("seed %d: want 2 mark cycles (mid-stream + final), got %d", seed, st.ConcMarkCycles)
		}
		cycles += st.ConcMarkCycles
		shades += st.ConcMarkShaded
		marked += st.ConcMarkMarked
	}
	// The aggregate must show the machinery actually engaged: every run
	// marked objects, and across the seed corpus the deletion barrier
	// fired (individual seeds may legitimately never delete a white
	// old-space reference mid-cycle).
	if marked == 0 {
		t.Fatal("no objects were ever marked; the fuzzer exercised nothing")
	}
	if shades == 0 {
		t.Fatalf("the deletion barrier never shaded across %d seeds (%d cycles); the SATB case went unexercised",
			seeds, cycles)
	}
}

// assertConcViolation fails unless the sanitizer holds at least one
// violation of the given kind whose detail contains want, and no
// violation of any other kind.
func assertConcViolation(t *testing.T, san *sanitize.Checker, kind sanitize.Kind, want string) {
	t.Helper()
	vs := san.Violations()
	if len(vs) == 0 {
		t.Fatalf("injected fault not detected (want %v violation containing %q)", kind, want)
	}
	found := false
	for _, v := range vs {
		if v.Kind != kind {
			t.Errorf("unexpected violation kind %v (want only %v): %s", v.Kind, kind, v)
			continue
		}
		if strings.Contains(v.Detail, want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %v violation mentions %q:\n%s", kind, want, san.Report())
	}
}

// TestConcMarkSkippedBarrierCaught is the fault-injection test for the
// sanitizer's concmark rule: with the deletion barrier disabled (the
// skipBarrier test knob), overwriting the only reference to a white
// old-space object during an active cycle must be reported — the
// checker sees an unshaded snapshot-reachable referent go unmarkable.
func TestConcMarkSkippedBarrierCaught(t *testing.T) {
	cfg := fuzzConfig()
	cfg.ConcMark = true
	m := firefly.New(2, firefly.DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	h := New(m, cfg)
	m.Start(0, func(p *firefly.Proc) {
		a := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		x := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.Store(p, a, 1, x)
		h.AddRoot(&a)

		h.startConcMark(p)
		// a is grey (shaded as a root), x still white: no slice has
		// scanned a yet. Erase the only reference to x with the barrier
		// disabled — the exact bug the rule exists to catch.
		h.skipBarrier = true
		h.Store(p, a, 1, object.Nil)
		h.skipBarrier = false
		h.finishConcMark(p)
		h.concMarkSweep(p)
	})
	if r := m.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("machine stopped with %v", r)
	}
	assertConcViolation(t, san, sanitize.KindConcMark, "deletion barrier skipped")
}

// TestConcMarkTriColorViolationCaught is the fault-injection test for
// the finalize window's verifier: a reachable old-space object whose
// mark bit is lost mid-cycle (simulating a dropped shade) must be
// reported by the tri-color check before the sweep would reclaim it.
func TestConcMarkTriColorViolationCaught(t *testing.T) {
	cfg := fuzzConfig()
	cfg.ConcMark = true
	m := firefly.New(2, firefly.DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	h := New(m, cfg)
	m.Start(0, func(p *firefly.Proc) {
		a := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		x := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.Store(p, a, 1, x)
		h.AddRoot(&a)

		h.startConcMark(p)
		for h.concMarkSlice(p, concMarkSliceObjects, false) > 0 {
		}
		// Marking is complete and x is black. Lose its mark — the
		// injected equivalent of a missed shade — and finalize: the
		// tri-color verifier must see a reachable white object.
		h.SetHeader(x, h.Header(x).SetMarked(false))
		h.finishConcMark(p)
	})
	if r := m.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("machine stopped with %v", r)
	}
	assertConcViolation(t, san, sanitize.KindConcMark, "tri-color invariant broken")
}

// concPauseWorkload tenures a sliding window of keep rooted objects
// into old space and full-collects three times; it mirrors the
// msbench concmark ablation's mutator at test scale.
func concPauseWorkload(h *Heap, p *firefly.Proc, keep int) {
	var roots []object.OOP
	h.AddRootFunc(func(visit func(*object.OOP)) {
		for i := range roots {
			visit(&roots[i])
		}
	})
	x := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(n))
	}
	for r := 0; r < 6; r++ {
		for i := 0; i < keep; i++ {
			o := h.Allocate(p, object.Nil, 2+next(5), object.FmtPointers)
			if len(roots) > 0 {
				h.Store(p, o, 1, roots[next(len(roots))])
				h.Store(p, roots[next(len(roots))], 0, o)
			}
			roots = append(roots, o)
			if len(roots) > keep {
				k := next(len(roots))
				roots = append(roots[:k], roots[k+1:]...)
			}
		}
		h.Scavenge(p)
		if r%2 == 1 {
			h.FullCollect(p)
		}
	}
	h.CheckInvariants()
}

// concPauseBudgetTicks bounds the concurrent marker's longest
// stop-the-world window on the enlarged pause-regression heap: the
// snapshot window is O(young + roots) and the finalize window is
// O(residual + entry table), so the bound holds as the tenured
// population grows — the serial collector's pause does not.
const concPauseBudgetTicks = 40000

// TestConcMarkPauseBound is the pause-bound regression test: on an
// enlarged old space the concurrent marker's max full-GC pause must
// stay under a fixed tick budget, and strictly below the serial
// collector's max pause on the identical workload.
func TestConcMarkPauseBound(t *testing.T) {
	run := func(conc bool) Stats {
		m := firefly.New(2, firefly.DefaultCosts())
		cfg := Config{
			OldWords:      1 << 20,
			EdenWords:     32 << 10,
			SurvivorWords: 16 << 10,
			TenureAge:     2,
			Policy:        AllocSerialized,
			LocksEnabled:  true,
			ConcMark:      conc,
		}
		h := New(m, cfg)
		m.Start(0, func(p *firefly.Proc) { concPauseWorkload(h, p, 4000) })
		if r := m.Run(nil); r != firefly.StopAllDone {
			t.Fatalf("concmark=%v: machine stopped with %v", conc, r)
		}
		return h.Stats()
	}
	serial := run(false)
	conc := run(true)
	if serial.FullCollections == 0 || conc.FullCollections != serial.FullCollections {
		t.Fatalf("full collections diverge: serial %d, concurrent %d",
			serial.FullCollections, conc.FullCollections)
	}
	if conc.FullGCMaxPause >= serial.FullGCMaxPause {
		t.Fatalf("concurrent max pause %d ticks is not below the serial max pause %d ticks",
			conc.FullGCMaxPause, serial.FullGCMaxPause)
	}
	if conc.FullGCMaxPause > concPauseBudgetTicks {
		t.Fatalf("concurrent max pause %d ticks exceeds the %d-tick budget",
			conc.FullGCMaxPause, concPauseBudgetTicks)
	}
}

// TestConcMarkHostParallelStress replays a fuzzer workload in parallel
// host mode (real goroutine processors, ConcMark on): the driver
// mutates and full-collects while the other processors spin through
// their safepoints, donating mark-assist slices whenever a cycle is
// active. Under -race this is the data-race certificate for the
// barrier, the assist hook, and the sweep's publication protocol; the
// surviving graph must match the deterministic serial collector's.
func TestConcMarkHostParallelStress(t *testing.T) {
	seed := int64(7)
	want, _ := runConcFuzzDet(t, seed, false)

	cfg := fuzzConfig()
	cfg.Parallel = true
	cfg.ConcMark = true
	m := firefly.New(4, firefly.DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	h := New(m, cfg)
	var res fuzzResult
	var done atomic.Bool
	m.Start(0, func(p *firefly.Proc) {
		young, olds := fuzzConcOps(h, p, seed, false)
		res = canonicalize(t, h, young, olds)
		done.Store(true)
	})
	for i := 1; i < 4; i++ {
		m.Start(i, func(p *firefly.Proc) {
			for !p.Stopped() {
				p.AdvanceIdle(10)
				p.Yield()
				// Give the host scheduler room to interleave the
				// assists with the driver's slices.
				time.Sleep(time.Microsecond)
			}
		})
	}
	m.SetParallel(true)
	if r := m.Run(func() bool { return done.Load() }); r != firefly.StopUntil {
		t.Fatalf("host run: Run returned %v", r)
	}
	m.Shutdown()
	if vs := san.Violations(); len(vs) != 0 {
		t.Fatalf("host run: sanitizer violations:\n%s", san.Report())
	}
	if h.Stats().ConcMarkCycles == 0 {
		t.Fatal("host run: no concurrent mark cycle ran")
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("host-parallel surviving graph diverges from serial\nwant: %+v\ngot:  %+v", want, res)
	}
}
