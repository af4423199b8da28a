package heap

import (
	"strings"
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/sanitize"
)

// Fault-injection tests for the write-barrier verifier against the
// parallel scavenger's heap shape: survivors live in per-worker copy
// buffers with filler-capped gaps between them, so the verifier walks
// the survivor space and admits only real object starts. A bare range
// check (the verifier's original form, which assumed the serial
// scavenger's single contiguous copy cursor) would bless a pointer
// into a gap or into the middle of an object; these tests prove the
// walked form catches both, plus a remembered-set omission.

// parSanHeap runs fn on processor 0 of a four-processor machine with
// the parallel scavenger enabled and a sanitizer attached.
func parSanHeap(t *testing.T, fn func(h *Heap, p *firefly.Proc)) *sanitize.Checker {
	t.Helper()
	cfg := fuzzConfig()
	cfg.ParScavenge = true
	m := firefly.New(4, firefly.DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	h := New(m, cfg)
	m.Start(0, func(p *firefly.Proc) { fn(h, p) })
	if r := m.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("machine stopped with %v", r)
	}
	return san
}

// seedSurvivors builds enough rooted young objects that a parallel
// scavenge spreads copies across every worker's buffer, then scavenges
// once. Returns the roots (now survivor-space objects).
func seedSurvivors(h *Heap, p *firefly.Proc, roots *[]object.OOP) {
	h.AddRootFunc(func(visit func(*object.OOP)) {
		for i := range *roots {
			visit(&(*roots)[i])
		}
	})
	for i := 0; i < 100; i++ {
		o := h.Allocate(p, object.Nil, 4, object.FmtPointers)
		h.StoreNoCheck(o, 0, object.FromInt(int64(i)))
		*roots = append(*roots, o)
	}
	h.Scavenge(p)
}

// findFillers walks [base, next) and returns the address of every
// filler in it.
func findFillers(h *Heap, base, next uint64) []uint64 {
	var fillers []uint64
	for a := base; a < next; a += uint64(object.Header(h.mem[a]).SizeWords()) {
		if h.isFiller(a) {
			fillers = append(fillers, a)
		}
	}
	return fillers
}

func barrierViolations(san *sanitize.Checker, substr string) int {
	n := 0
	for _, v := range san.Violations() {
		if v.Kind == sanitize.KindWriteBarrier && strings.Contains(v.Detail, substr) {
			n++
		}
	}
	return n
}

// An old object pointing into a copy-buffer gap (where a bare range
// check would see "valid new space") must be flagged as a dangling
// reference.
func TestVerifierCatchesPointerIntoCopyBufferGap(t *testing.T) {
	san := parSanHeap(t, func(h *Heap, p *firefly.Proc) {
		var roots []object.OOP
		seedSurvivors(h, p, &roots)
		live := h.surv[h.past]
		gaps := findFillers(h, live.base, live.next)
		if len(gaps) == 0 {
			t.Fatal("no copy-buffer filler in survivor space; workload too small")
		}
		gap := gaps[0]
		old := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		// FAULT: a pointer into the filler gap, planted behind the
		// barrier's back (test-only reach into the representation).
		h.mem[old.Addr()+object.HeaderWords] = uint64(object.FromAddr(gap))
		h.verifyWriteBarrier(p)
	})
	if barrierViolations(san, "reclaimed new space") == 0 {
		t.Fatalf("pointer into a copy-buffer gap not detected:\n%s", san.Report())
	}
}

// A corrupted forwarding pointer shows up as an old object referencing
// the middle of a survivor object — a new-space address that is not an
// object start. The verifier must reject it.
func TestVerifierCatchesCorruptedForwardingPointer(t *testing.T) {
	san := parSanHeap(t, func(h *Heap, p *firefly.Proc) {
		var roots []object.OOP
		seedSurvivors(h, p, &roots)
		old := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.Store(p, old, 0, roots[0])
		// FAULT: as if a racing worker had published a forwarding
		// pointer off by a word — the referent is now mid-object.
		h.mem[old.Addr()+object.HeaderWords] = uint64(object.FromAddr(roots[0].Addr() + 2))
		h.verifyWriteBarrier(p)
	})
	if barrierViolations(san, "reclaimed new space") == 0 {
		t.Fatalf("corrupted forwarding pointer not detected:\n%s", san.Report())
	}
}

// An old object that references new space but is missing from the
// entry table (a remembered-set omission — e.g. a worker losing a kept
// entry while the sets are merged) must be flagged.
func TestVerifierCatchesRememberedSetOmission(t *testing.T) {
	san := parSanHeap(t, func(h *Heap, p *firefly.Proc) {
		var roots []object.OOP
		seedSurvivors(h, p, &roots)
		old := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.Store(p, old, 0, roots[0])
		h.Scavenge(p)
		// FAULT: drop the entry from the table, keeping the header bit
		// and the old→new reference.
		kept := h.remembered[:0]
		for _, o := range h.remembered {
			if o != old {
				kept = append(kept, o)
			}
		}
		if len(kept) == len(h.remembered) {
			t.Fatal("old object never entered the entry table; bad setup")
		}
		h.remembered = kept
		h.verifyWriteBarrier(p)
	})
	if barrierViolations(san, "is not in the entry table") == 0 {
		t.Fatalf("remembered-set omission not detected:\n%s", san.Report())
	}
	if barrierViolations(san, "disagrees") == 0 {
		t.Fatalf("header-bit/table disagreement not reported:\n%s", san.Report())
	}
}

// The same workload with no fault injected is verifier-clean: the
// walked survivor space (fillers and all) produces no false positives.
func TestVerifierCleanOnParallelScavengeHeap(t *testing.T) {
	san := parSanHeap(t, func(h *Heap, p *firefly.Proc) {
		var roots []object.OOP
		seedSurvivors(h, p, &roots)
		old := h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
		h.Store(p, old, 0, roots[0])
		h.Scavenge(p)
		h.CheckInvariants()
	})
	if vs := san.Violations(); len(vs) != 0 {
		t.Fatalf("clean parallel-scavenge workload reported violations:\n%s", san.Report())
	}
}

// Every filler writer leaves old space walkable: a retired copy
// buffer's tail, the rest of a carved free span, and a swept dead run
// longer than one filler header can cover. For each, isFiller
// recognizes the fillers, CheckInvariants walks across them, and the
// write-barrier verifier skips their bodies — which still hold the dead
// words they cover, here a planted pointer into reclaimed new space.
func TestEveryFillerWriterIsWalkable(t *testing.T) {
	concConfig := func(oldWords int) Config {
		cfg := smallConfig()
		cfg.OldWords = oldWords
		cfg.ConcMark = true
		return cfg
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, fn func(h *Heap, p *firefly.Proc)) *sanitize.Checker
		// fill makes the writer write and returns the fillers it left.
		fill func(t *testing.T, h *Heap, p *firefly.Proc) []uint64
	}{
		{"copy-buffer tail", parSanHeap, func(t *testing.T, h *Heap, p *firefly.Proc) []uint64 {
			var roots []object.OOP
			seedSurvivors(h, p, &roots)
			for h.InNewSpace(roots[0]) {
				h.Scavenge(p) // tenure them through the workers' old-space buffers
			}
			return findFillers(h, h.old.base, h.old.next)
		}},
		{"carved free-span remainder", func(t *testing.T, fn func(h *Heap, p *firefly.Proc)) *sanitize.Checker {
			return sanHeap(t, concConfig(8192), fn)
		}, func(t *testing.T, h *Heap, p *firefly.Proc) []uint64 {
			var keep object.OOP
			h.AddRoot(&keep)
			keep = h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
			dead := h.AllocateNoGC(object.Nil, 30, object.FmtPointers)
			h.FullCollect(p) // sweeps dead's 32 words into a free span
			if o := h.AllocateNoGC(object.Nil, 6, object.FmtPointers); o != dead {
				t.Fatalf("allocation at %d did not carve the swept span at %d", o.Addr(), dead.Addr())
			}
			return []uint64{dead.Addr() + 8}
		}},
		{"swept run longer than maxFillerWords", func(t *testing.T, fn func(h *Heap, p *firefly.Proc)) *sanitize.Checker {
			return sanHeap(t, concConfig(maxFillerWords+4096), fn)
		}, func(t *testing.T, h *Heap, p *firefly.Proc) []uint64 {
			// Two dead objects written by hand, so that none of the
			// 128 MB of address space they span is ever touched.
			a, b := h.old.base, h.old.base+1<<23
			h.mem[a] = uint64(object.MakeHeader(1<<23, object.FmtWords, 0))
			h.mem[a+1] = uint64(object.Nil)
			h.mem[b] = uint64(object.MakeHeader(1<<23+64, object.FmtWords, 0))
			h.mem[b+1] = uint64(object.Nil)
			h.old.next = b + 1<<23 + 64
			var keep object.OOP
			h.AddRoot(&keep)
			keep = h.AllocateNoGC(object.Nil, 2, object.FmtPointers)
			h.FullCollect(p)
			fillers := findFillers(h, h.old.base, keep.Addr())
			if len(fillers) != 2 || fillers[1] != a+maxFillerWords {
				t.Fatalf("swept run of %d words left fillers at %v, want at %d and %d",
					keep.Addr()-a, fillers, a, a+maxFillerWords)
			}
			return fillers
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			san := tc.run(t, func(h *Heap, p *firefly.Proc) {
				fillers := tc.fill(t, h, p)
				if len(fillers) == 0 {
					t.Fatal("the writer left no filler")
				}
				stale := uint64(object.FromAddr(h.eden.base + 64))
				for _, a := range fillers {
					if !h.isFiller(a) {
						t.Fatalf("no filler at %d", a)
					}
					if object.Header(h.mem[a]).SizeWords() > object.HeaderWords {
						h.mem[a+object.HeaderWords] = stale
					}
				}
				h.CheckInvariants()
				h.verifyWriteBarrier(p)
			})
			if vs := san.Violations(); len(vs) != 0 {
				t.Fatalf("verifier reported a filler:\n%s", san.Report())
			}
		})
	}
}
