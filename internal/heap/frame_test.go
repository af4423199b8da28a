package heap

import (
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
)

// frameModes are the heaps a Frame is bound on: the deterministic one,
// which grants views, and the two that must refuse them.
var frameModes = []struct {
	name  string
	tweak func(*Config)
	views bool
}{
	{"det", func(*Config) {}, true},
	{"parallel", func(c *Config) { c.Parallel = true }, false},
	{"concmark", func(c *Config) { c.ConcMark = true }, false},
}

// TestFrameGrantsViewsOnlyWhereAccessIsPlain: a Parallel or ConcMark heap
// gets no view at all, an old-space object no view for checked stores
// (a young value must reach the store check); and whichever path a Frame
// method takes, it and the accessors see the same words — the frame is a
// view of object memory, not a copy of it.
func TestFrameGrantsViewsOnlyWhereAccessIsPlain(t *testing.T) {
	for _, mode := range frameModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := smallConfig()
			mode.tweak(&cfg)
			testHeap(t, cfg, func(h *Heap, p *firefly.Proc) {
				young := h.Allocate(p, object.Nil, 12, object.FmtPointers)
				old := h.AllocateNoGC(object.Nil, 12, object.FmtPointers)
				for _, tc := range []struct {
					o              object.OOP
					plain, checked bool
				}{{young, mode.views, mode.views}, {old, mode.views, false}} {
					var f Frame
					f.Bind(h, tc.o, 2, 8)
					if got := len(f.plain) == 8; got != tc.plain {
						t.Errorf("plain view granted = %v, want %v", got, tc.plain)
					}
					if got := len(f.young) == 8; got != tc.checked {
						t.Errorf("young view granted = %v, want %v", got, tc.checked)
					}
					// Poke stores in place exactly where Store would not
					// have checked: any value into a young object, a value
					// that is no new-space reference into an old one.
					if f.Poke(0, object.True) != tc.plain {
						t.Errorf("Poke of true stored in place = %v, want %v", !tc.plain, tc.plain)
					}
					if f.Poke(0, young) != tc.checked {
						t.Errorf("Poke of a young oop stored in place = %v, want %v", !tc.checked, tc.checked)
					}
					if f.Poke(8, object.True) {
						t.Error("Poke stored past the frame")
					}

					// Frame → accessors.
					for i := 0; i < 8; i++ {
						f.Set(p, i, object.FromInt(int64(10+i)))
					}
					f.Put(7, object.False)
					f.Clear(3, 5)
					want := []object.OOP{object.FromInt(10), object.FromInt(11), object.FromInt(12),
						object.Nil, object.Nil, object.FromInt(15), object.FromInt(16), object.False}
					for i, w := range want {
						if got := h.Fetch(tc.o, 2+i); got != w {
							t.Errorf("field %d through Fetch = %v, want %v", 2+i, got, w)
						}
						if got := f.Get(i); got != w {
							t.Errorf("slot %d through Get = %v, want %v", i, got, w)
						}
					}
					if h.Fetch(tc.o, 1) != object.Nil || h.Fetch(tc.o, 10) != object.Nil {
						t.Error("a frame store landed outside [first, first+n)")
					}
					// Accessors → frame.
					h.Store(p, tc.o, 2+4, object.True)
					if got := f.Get(4); got != object.True {
						t.Errorf("Store not seen through the frame: slot 4 = %v", got)
					}
				}

				// A young value stored through a frame over an old object
				// takes the store check, exactly like Store.
				var f Frame
				f.Bind(h, old, 0, 12)
				before := h.Stats().StoreChecks
				f.Set(p, 0, young)
				if got := h.Stats().StoreChecks - before; got != 1 || !h.Header(old).Remembered() {
					t.Errorf("old←young through Set: %d store checks, remembered=%v", got, h.Header(old).Remembered())
				}
				if !f.Unchecked() {
					t.Error("a remembered object still reports store checks pending")
				}
			})
		})
	}
}

// TestFrameGoesStaleOnlyByMoving: after a scavenge the object has moved
// and a re-bound frame sees its contents at the new address; once the
// object is tenured the re-bound frame has lost its young view.
func TestFrameGoesStaleOnlyByMoving(t *testing.T) {
	cfg := smallConfig()
	cfg.TenureAge = 1
	testHeap(t, cfg, func(h *Heap, p *firefly.Proc) {
		o := h.Allocate(p, object.Nil, 6, object.FmtPointers)
		h.AddRoot(&o)
		var f Frame
		f.Bind(h, o, 0, 6)
		f.Set(p, 5, object.FromInt(42))
		for i := 0; h.InNewSpace(o); i++ {
			if i > 3 {
				t.Fatal("object never tenured")
			}
			h.Scavenge(p)
			f.Bind(h, o, 0, 6)
			if f.Get(5) != object.FromInt(42) {
				t.Fatalf("scavenge %d: re-bound frame reads %v", i, f.Get(5))
			}
		}
		if len(f.plain) != 6 || len(f.young) != 0 {
			t.Errorf("tenured object: plain view %d, young view %d slots; want 6, 0", len(f.plain), len(f.young))
		}
	})
}
