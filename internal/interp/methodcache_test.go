package interp

import (
	"math/rand"
	"testing"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
)

// refCache is the method cache as it was before flushes visited only
// the filled slots: the same probe and fill rule as lookup, and a flush
// that clears every entry.
type refCache struct {
	entries [cacheSize]mcEntry
	twoWay  bool
}

// lookup answers whether (selector, class) hits, filling on a miss the
// way lookup does when found.
func (r *refCache) lookup(class, selector, method object.OOP, prim int, found bool) bool {
	idx := cacheIndex(selector, class)
	if e := r.entries[idx]; e.selector == selector && e.class == class {
		return true
	}
	if r.twoWay {
		if e := r.entries[idx^1]; e.selector == selector && e.class == class {
			return true
		}
	}
	if !found {
		return false
	}
	if r.twoWay && r.entries[idx].selector != object.Invalid && r.entries[idx^1].selector == object.Invalid {
		idx ^= 1
	}
	r.entries[idx] = mcEntry{selector, class, method, prim}
	return false
}

// cachePairs answers a (class, selector) pair for every selector in the
// method dictionaries of the image's special classes and their
// metaclasses, crossed with every one of those classes, so lookups hit,
// miss, climb superclass chains, fail (doesNotUnderstand:) and collide.
func cachePairs(vm *VM) [][2]object.OOP {
	s := &vm.Specials
	h := vm.H
	var classes []object.OOP
	for _, c := range []object.OOP{s.Object, s.Behavior, s.Class, s.UndefinedObject, s.Boolean,
		s.TrueCls, s.FalseCls, s.SmallInteger, s.Float, s.Character, s.String, s.Symbol,
		s.Array, s.ByteArray, s.Association, s.MethodContext, s.BlockContext, s.Process,
		s.Semaphore, s.Magnitude, s.Number, s.Collection} {
		classes = append(classes, c, h.ClassOf(c))
	}
	seen := map[object.OOP]bool{}
	var sels []object.OOP
	for _, c := range classes {
		keys := h.Fetch(h.Fetch(c, ClsMethodDict), MDKeys)
		for i := 0; i < h.FieldCount(keys); i++ {
			if k := h.Fetch(keys, i); k != object.Nil && !seen[k] {
				seen[k] = true
				sels = append(sels, k)
			}
		}
	}
	var pairs [][2]object.OOP
	for _, c := range classes {
		for _, sel := range sels {
			pairs = append(pairs, [2]object.OOP{c, sel})
		}
	}
	return pairs
}

// walk answers what a cache-less lookup of selector from class finds.
func walk(vm *VM, class, selector object.OOP) (object.OOP, int, bool) {
	for c := class; c != object.Nil; c = vm.H.Fetch(c, ClsSuperclass) {
		if m, ok := vm.methodDictLookup(vm.H.Fetch(c, ClsMethodDict), selector); ok {
			return m, headerPrim(vm.H.Fetch(m, CMHeader)), true
		}
	}
	return object.Nil, 0, false
}

// TestMethodCacheFlushProperty drives real lookups through each method
// cache organization (replicated and shared, one- and two-way) with a
// seeded mix of lookups, installs' flushes and scavenges' flushes, and
// holds every cache to a reference that clears all of its entries at a
// flush: after each lookup the cache's entries equal the reference's,
// the lookup hit or missed as the reference did and answered what the
// dictionary walk answers, and after each flush every slot of every
// cache is zero.
func TestMethodCacheFlushProperty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy CachePolicy
		ways   int
	}{
		{"replicated-1way", CacheReplicated, 1},
		{"replicated-2way", CacheReplicated, 2},
		{"shared-1way", CacheSharedLocked, 1},
		{"shared-2way", CacheSharedLocked, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vm := bootTestVM(t, 2, func(c *Config, _ *heap.Config) {
				c.MethodCache, c.CacheWays = tc.policy, tc.ways
			})
			caches := []*methodCache{vm.sharedCache}
			if tc.policy == CacheReplicated {
				caches = []*methodCache{vm.Interps[0].cache, vm.Interps[1].cache}
			}
			refs := make([]refCache, len(caches))
			for i := range refs {
				refs[i].twoWay = tc.ways == 2
			}
			flushed := func(why string, op int) {
				for i, c := range caches {
					if c.n != 0 || c.entries != ([cacheSize]mcEntry{}) {
						t.Errorf("op %d: cache %d not empty after %s: %d slots listed", op, i, why, c.n)
					}
					refs[i].entries = [cacheSize]mcEntry{}
				}
			}
			vm.M.Start(0, func(p *firefly.Proc) {
				rng := rand.New(rand.NewSource(1988))
				pairs := cachePairs(vm)
				if len(pairs) < 2*cacheSize {
					t.Errorf("%d pairs: too few to collide in %d slots", len(pairs), cacheSize)
				}
				fills := 0
				for op := 0; op < 20000 && !t.Failed(); op++ {
					switch r := rng.Intn(100); {
					case r < 2:
						vm.flushAllCaches()
						flushed("an install's flush", op)
					case r < 3:
						vm.H.Scavenge(p)
						flushed("a scavenge", op)
						pairs = cachePairs(vm) // the scavenge moved young classes and selectors
					default:
						// Either interpreter's probe, from processor 0:
						// lookup only charges its processor's clock.
						k := rng.Intn(len(vm.Interps))
						in := vm.Interps[k]
						ci := min(k, len(caches)-1)
						pr := pairs[rng.Intn(len(pairs))]
						wantM, wantPrim, wantOK := walk(vm, pr[0], pr[1])
						wantHit := refs[ci].lookup(pr[0], pr[1], wantM, wantPrim, wantOK)
						hits := in.stats.CacheHits
						m, prim, ok := in.lookup(pr[0], pr[1])
						if hit := in.stats.CacheHits != hits; hit != wantHit {
							t.Errorf("op %d: hit=%v, the reference's %v", op, hit, wantHit)
						} else if !hit && ok {
							fills++
						}
						if m != wantM || prim != wantPrim || ok != wantOK {
							t.Errorf("op %d: lookup answered (%v, %d, %v), the walk (%v, %d, %v)",
								op, m, prim, ok, wantM, wantPrim, wantOK)
						}
						if caches[ci].entries != refs[ci].entries {
							t.Errorf("op %d: cache %d's entries differ from the reference's", op, ci)
						}
					}
				}
				if fills < 10*cacheSize {
					t.Errorf("%d fills: too few to exercise the used list", fills)
				}
			})
			if r := vm.M.Run(nil); r != firefly.StopAllDone {
				t.Fatalf("Run = %v", r)
			}
		})
	}
}

// TestMethodCacheFlushAllocatesNothing: filling every slot and flushing
// makes no Go allocation (the used list is a fixed array).
func TestMethodCacheFlushAllocatesNothing(t *testing.T) {
	c := new(methodCache)
	if got := testing.AllocsPerRun(20, func() {
		for i := 0; i < cacheSize; i++ {
			c.fill(i, mcEntry{selector: object.FromInt(1), class: object.FromInt(2)})
			c.fill(i, mcEntry{selector: object.FromInt(3), class: object.FromInt(4)}) // a refill lists nothing
		}
		if c.n != cacheSize {
			t.Fatalf("%d slots listed, want %d", c.n, cacheSize)
		}
		c.flush()
	}); got != 0 {
		t.Errorf("%v Go allocations per fill-and-flush round", got)
	}
}
