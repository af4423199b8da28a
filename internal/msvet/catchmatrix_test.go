package msvet

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
)

// mutation is one realistic bug planted at a real site of this module:
// the one occurrence of old in file is replaced by new. want is the
// exact set of analyzers that flag the mutated module, by name, sorted;
// nil means msvet misses it. What the other tools (go test, -race, the
// msbench gate and mscheck) make of each row is CHANGES.md's catch
// matrix: the rows below are its rows, and a checker stays only while
// some row needs it or it polices a row of the paper's Table 3.
type mutation struct {
	name string
	file string // module-relative, slash-separated
	old  string
	new  string
	want []string
}

var catalog = []mutation{
	{ // 1: eden's bump pointer with no lock (firefly panics at the release)
		name: "01-reserve-unlocked", file: "internal/heap/alloc.go",
		old: "\t\th.allocLock.Acquire(p)\n\t\th.sanAccess(p, \"eden\")\n\t\tif h.eden.free() >= total {\n\t\t\taddr := h.eden.next",
		new: "\t\th.sanAccess(p, \"eden\")\n\t\tif h.eden.free() >= total {\n\t\t\taddr := h.eden.next",
	},
	{ // 2: the shared free list takes scheduler inside free-contexts
		name: "02-freelist-takes-scheduler", file: "internal/interp/send.go",
		old:  "\t\tvm.sanAccess(in.p, \"shared-free-contexts\")\n\t\tif len(*list) < freeListMax {",
		new:  "\t\tvm.sanAccess(in.p, \"shared-free-contexts\")\n\t\tvm.schedLock.Acquire(in.p)\n\t\tvm.schedLock.Release(in.p)\n\t\tif len(*list) < freeListMax {",
		want: []string{"lockorder"},
	},
	{ // 3: a postGC hook allocates inside the collector's window
		name: "03-postgc-hook-allocates", file: "internal/interp/interp.go",
		old: "\th.OnPostScavenge(in.flushFreeContexts)",
		new: "\th.OnPostScavenge(func() {\n\t\tin.flushFreeContexts()\n\t\th.Allocate(in.p, object.Nil, 2, object.FmtPointers)\n\t})",
	},
	{ // 4: a raw store into object memory outside the write funnel
		name: "04-storeword-raw", file: "internal/heap/heap.go",
		old:  "\th.storeWord(o.Addr()+object.HeaderWords+uint64(i), w)",
		new:  "\th.mem[o.Addr()+object.HeaderWords+uint64(i)] = w",
		want: []string{"atomicguard", "barrierflow"},
	},
	{ // 5: SetClass forgets the store check (an old object's young class)
		name: "05-setclass-no-storecheck", file: "internal/heap/heap.go",
		old: "\th.storeWord(o.Addr()+1, uint64(class))\n\th.storeCheck(p, o, class)\n",
		new: "\th.storeWord(o.Addr()+1, uint64(class))\n",
	},
	{ // 6: a histogram count read without its atomic
		name: "06-histogram-count-plain", file: "internal/trace/histogram.go",
		old:  "func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.count) }",
		new:  "func (h *Histogram) Count() int64 { return h.count }",
		want: []string{"atomicguard"},
	},
	{ // 7: the simulated machine reads the host clock
		name: "07-firefly-wallclock", file: "internal/firefly/costs.go",
		old:  "package firefly\n",
		new:  "package firefly\n\nimport \"time\"\n\nvar bootStamp = time.Now()\n",
		want: []string{"virttime"},
	},
	{ // 8: the full collector takes a lock that is not stw-safe
		name: "08-fullgc-entry-table-in-stw", file: "internal/heap/fullgc.go",
		old:  "\trunHooks(h.preGC)\n\th.inGC = true",
		new:  "\trunHooks(h.preGC)\n\th.entryLock.Acquire(p)\n\th.entryLock.Release(p)\n\th.inGC = true",
		want: []string{"stwsafe"},
	},
	{ // 9: msjit charges one tick of its own
		name: "09-jit-invented-tick", file: "internal/jit/fuse.go",
		old: "\tz.f.Charge = firefly.Time(z.f.N-1) * p.DispatchCost",
		new: "\tz.f.Charge = firefly.Time(z.f.N-1)*p.DispatchCost + firefly.Time(1)",
	},
	{ // 10: a second TryAcquire site outside the idle poll
		name: "10-second-tryacquire", file: "internal/interp/sched.go",
		old:  "\tvm.schedLock.Acquire(in.p)\n\tvm.H.StoreNoCheck(in.proc, PrState, object.FromInt(StateTerminated))",
		new:  "\tfor !vm.schedLock.TryAcquire(in.p) {\n\t}\n\tvm.H.StoreNoCheck(in.proc, PrState, object.FromInt(StateTerminated))",
		want: []string{"lockpair"},
	},
	{ // 11: context recycling uses processor 0's replicated free list
		name: "11-recycle-pops-proc0", file: "internal/interp/send.go",
		old: "\treturn &in.free[which]",
		new: "\treturn &in.vm.Interps[0].free[which]",
	},
	{ // 12: a large object is carved from old space with no lock
		name: "12-reserveold-unlocked", file: "internal/heap/alloc.go",
		old: "\th.allocLock.Acquire(p)\n\tdefer h.allocLock.Release(p)\n\th.sanAccess(p, \"old-space\")",
		new: "\th.sanAccess(p, \"old-space\")",
	},
	{ // 13: a block activation stores its caller with no store check
		name: "13-blockvalue-nocheck", file: "internal/interp/send.go",
		old: "\th.Store(in.p, blk, BCtxCaller, in.ctx)",
		new: "\th.StoreNoCheck(blk, BCtxCaller, in.ctx)",
	},
	{ // 14: every processor bumps processor 0's TLAB (a replication row)
		name: "14-tlab-shared", file: "internal/heap/alloc.go",
		old: "\tt := &h.tlabs[p.ID()]",
		new: "\tt := &h.tlabs[0]",
	},
	{ // 15: every processor probes processor 0's method cache (a replication row)
		name: "15-method-cache-proc0", file: "internal/interp/send.go",
		old: "\t\tcache = in.cache\n",
		new: "\t\tcache = vm.Interps[0].cache\n",
	},
	{ // 17: the scavenger publishes the forwarding pointer before the body copy (row 16, the CAS claim, went with its site)
		name: "17-publish-before-copy", file: "internal/heap/scavenge.go",
		old: "\tcopy(h.mem[dst:dst+uint64(size)], h.mem[addr:addr+uint64(size)])\n\th.mem[dst], h.mem[addr+1], h.mem[addr] = uint64(nh), dst, uint64(hd.SetForwarded())\n",
		new: "\th.mem[addr+1], h.mem[addr] = dst, uint64(hd.SetForwarded())\n\tcopy(h.mem[dst:dst+uint64(size)], h.mem[addr:addr+uint64(size)])\n\th.mem[dst] = uint64(nh)\n",
	},
	{ // 18: Store skips ConcMark's deletion barrier
		name: "18-store-no-deletion-barrier", file: "internal/heap/heap.go",
		old: "v object.OOP) {\n\tif h.cm != nil {\n\t\th.deletionBarrier(o.Addr() + object.HeaderWords + uint64(i))\n\t}\n\th.storeWord(o.Addr()+object.HeaderWords+uint64(i), uint64(v))\n\th.storeCheck(p, o, v)",
		new: "v object.OOP) {\n\th.storeWord(o.Addr()+object.HeaderWords+uint64(i), uint64(v))\n\th.storeCheck(p, o, v)",
	},
	{ // 19: ConcMark greys an already marked object again
		name: "19-grey-twice", file: "internal/heap/concmark.go",
		old: "\thd := h.Header(v)\n\tif hd.Marked() {\n\t\treturn false\n\t}\n",
		new: "\thd := h.Header(v)\n",
	},
	{ // 20: a method-cache fill takes the write side twice (CacheSharedLocked)
		name: "20-cache-double-acquirewrite", file: "internal/interp/send.go",
		old: "\t\tvm.cacheLock.AcquireWrite(in.p)\n",
		new: "\t\tvm.cacheLock.AcquireWrite(in.p)\n\t\tvm.cacheLock.AcquireWrite(in.p)\n",
	},
	{ // 21: a method-cache probe releases a read side it never took
		name: "21-cache-releaseread-unacquired", file: "internal/interp/send.go",
		old: "\t\tvm.cacheLock.AcquireRead(in.p)\n",
		new: "",
	},
	{ // 22: Scavenge collects without stopping the world
		name: "22-scavenge-no-stw", file: "internal/heap/scavenge.go",
		old: "\tif !h.m.StopTheWorld(p) {\n\t\treturn\n\t}\n\tdefer h.m.ResumeTheWorld(p)\n\th.scavenge(p)\n",
		new: "\th.scavenge(p)\n",

		want: []string{"stwsafe"},
	},
}

// TestCatchMatrix applies each row to its own copy of the module and
// pins which analyzers flag it. A row whose site has drifted fails with
// the file and the missing text: a refactor updates the catalog rather
// than emptying it.
func TestCatchMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("one typed load of the module per row")
	}
	if raceEnabled {
		t.Skip("type-checking is not racy; the rows would only slow the race run")
	}
	// Each load type-checks the standard library from source: most of
	// its garbage dies young, so a lazier collector halves the wall time.
	gc := debug.SetGCPercent(400)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	root := filepath.Join("..", "..")
	src, err := moduleSources(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range catalog {
		body, ok := src[m.file]
		if !ok {
			t.Errorf("%s: %s is not a file of the module", m.name, m.file)
			continue
		}
		if n := strings.Count(body, m.old); n != 1 {
			t.Errorf("%s: %s holds %d copies of the text the row replaces, want 1:\n%s", m.name, m.file, n, m.old)
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			for name, body := range src {
				if name == m.file {
					body = strings.Replace(body, m.old, m.new, 1)
				}
				path := filepath.Join(dir, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			mod, err := LoadTyped(dir)
			if err != nil {
				t.Fatal(err)
			}
			findings, err := RunSuite(mod, Analyzers())
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, f := range findings {
				seen[f.Analyzer] = true
			}
			var got []string
			for a := range seen {
				got = append(got, a)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, m.want) {
				t.Errorf("flagged by %v, want %v; findings:\n%v", got, m.want, findings)
			}
		})
	}
}

// moduleSources reads what LoadModule reads under root: go.mod and
// every .go file outside .git, testdata and hidden directories, keyed
// by slash-separated module-relative path.
func moduleSources(root string) (map[string]string, error) {
	src := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		name := info.Name()
		if info.IsDir() {
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && !(name == "go.mod" && filepath.Dir(path) == root) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		src[filepath.ToSlash(rel)] = string(b)
		return err
	})
	return src, err
}
