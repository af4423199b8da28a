package heap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/sanitize"
)

// The differential GC fuzzer: a seeded random object-graph builder and
// mutator runs the identical operation sequence through the serial
// scavenger and the parallel one, then compares the surviving graphs —
// live set, per-object tenure decision and age, remembered-set
// contents — object by object. Objects are identified by a unique
// SmallInteger stamped into field 0 at allocation, so the comparison
// is insensitive to addresses (the parallel scavenger's per-worker
// copy buffers place survivors differently by design).
//
// The survivor space is sized so overflow tenuring never triggers:
// age-driven tenuring is order-independent, so the two scavengers must
// agree exactly. (Overflow tenuring is the one documented behavioral
// deviation: the serial scavenger overflows at a precise fill point,
// the parallel one when a chunk carve fails.)

// fuzzConfig sizes the heap so the fuzzer's live set (a few hundred
// words) never overflow-tenures even with per-worker chunk
// fragmentation eating into the survivor space.
func fuzzConfig() Config {
	return Config{
		OldWords:      16384,
		EdenWords:     2048,
		SurvivorWords: 4096,
		TenureAge:     3,
		Policy:        AllocSerialized,
		LocksEnabled:  true,
	}
}

// canonObj is one live object in address-free form. Raw holds the body
// of a FmtBytes/FmtWords object past its ID word, bit for bit.
type canonObj struct {
	Old        bool
	Age        int
	Remembered bool
	Class      string
	Fields     []string
	Raw        []uint64
}

// fuzzResult is one run's surviving state in address-free form.
type fuzzResult struct {
	Roots      []string
	Objs       map[int64]canonObj
	Remembered []int64
}

// fuzzOps drives the seeded random workload on h, registering the
// young list as a root set (so scavenges triggered mid-build update
// it), and runs the final scavenge pair. The operation sequence is a
// pure function of the seed: no decision feeds back from heap
// addresses or clocks into the generator, so a serial and a parallel
// run replay identical mutations.
func fuzzOps(h *Heap, p *firefly.Proc, seed int64) (young, olds []object.OOP) {
	h.AddRootFunc(func(visit func(*object.OOP)) {
		for i := range young {
			visit(&young[i])
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
	for op := 0; op < n; op++ {
		switch r := rng.Intn(100); {
		case r < 42: // allocate a young object, wiring some edges
			fields := 2 + rng.Intn(5)
			o := stamp(h.Allocate(p, object.Nil, fields, object.FmtPointers))
			for i := 1; i < fields; i++ {
				if len(young) > 0 && rng.Intn(100) < 40 {
					h.Store(p, o, i, young[rng.Intn(len(young))])
				}
			}
			young = append(young, o)
		case r < 55: // young→young edge
			if len(young) >= 2 {
				a := young[rng.Intn(len(young))]
				b := young[rng.Intn(len(young))]
				h.Store(p, a, 1+rng.Intn(h.FieldCount(a)-1), b)
			}
		case r < 63: // drop a root: the subgraph may become garbage
			if len(young) > 0 {
				k := rng.Intn(len(young))
				young = append(young[:k], young[k+1:]...)
			}
		case r < 73: // allocate an old object referencing new space
			fields := 2 + rng.Intn(3)
			o := stamp(h.AllocateNoGC(object.Nil, fields, object.FmtPointers))
			if len(young) > 0 {
				h.Store(p, o, 1+rng.Intn(fields-1), young[rng.Intn(len(young))])
			}
			olds = append(olds, o)
		case r < 83: // old→young edge (or severing one with nil)
			if len(olds) > 0 && len(young) > 0 {
				o := olds[rng.Intn(len(olds))]
				v := young[rng.Intn(len(young))]
				if rng.Intn(100) < 20 {
					v = object.Nil
				}
				h.Store(p, o, 1+rng.Intn(h.FieldCount(o)-1), v)
			}
		case r < 95: // an edge a collector must leave alone, or a raw body
			fuzzExotic(h, p, rng, &nextID, young, olds)
		default: // explicit scavenge mid-build
			h.Scavenge(p)
		}
	}
	h.Scavenge(p)
	// Mutate between the final pair of scavenges so the second one
	// re-derives the remembered set from fresh stores.
	if len(olds) > 0 && len(young) > 0 {
		h.Store(p, olds[0], 1, young[len(young)-1])
	}
	if len(young) >= 2 {
		h.Store(p, young[0], 1, young[len(young)-1])
	}
	h.Scavenge(p)
	h.CheckInvariants()
	return young, olds
}

// fuzzExotic performs one operation of the kinds a collector's per-word
// filter has to get right, on objects picked from the two live lists: a
// young→old edge, a young→immortal edge (true/false), a class word that
// refers to a young object (on a young or an old holder — the latter a
// store check through SetClass), or a FmtBytes/FmtWords object whose raw
// body words look like new-space references and must come through every
// collection unscanned. A raw object carries its ID in body word 0 and
// fuzzRawWord(h, id, i) in word i, so canonicalize can check the bits
// with no record of what was written; it is reachable only through the
// pointer field it is stored into.
func fuzzExotic(h *Heap, p *firefly.Proc, rng *rand.Rand, nextID *int64, young, olds []object.OOP) {
	if len(young) == 0 {
		return
	}
	holder := young[rng.Intn(len(young))]
	field := 1 + rng.Intn(h.FieldCount(holder)-1)
	switch rng.Intn(4) {
	case 0:
		if len(olds) > 0 {
			h.Store(p, holder, field, olds[rng.Intn(len(olds))])
		}
	case 1:
		h.Store(p, holder, field, object.FromBool(rng.Intn(2) == 0))
	case 2:
		class := young[rng.Intn(len(young))]
		if len(olds) > 0 && rng.Intn(2) == 0 {
			holder = olds[rng.Intn(len(olds))]
		}
		h.SetClass(p, holder, class)
	case 3:
		words := 2 + 2*rng.Intn(3)
		var raw object.OOP
		switch rng.Intn(3) {
		case 0:
			raw = h.Allocate(p, object.Nil, words, object.FmtWords)
		case 1:
			raw = h.Allocate(p, object.Nil, words*8, object.FmtBytes)
		default:
			raw = h.AllocateNoGC(object.Nil, words, object.FmtWords)
		}
		// No collection between the allocation and the store below.
		h.StoreWord(raw, 0, uint64(*nextID))
		for i := 1; i < words; i++ {
			h.StoreWord(raw, i, fuzzRawWord(h, *nextID, i))
		}
		*nextID++
		h.Store(p, holder, field, raw)
	}
}

// fuzzRawWord is body word i of raw object id: an even word inside new
// space, a pure function of the heap's geometry.
func fuzzRawWord(h *Heap, id int64, i int) uint64 {
	span := (h.eden.limit - h.newBase) / 2
	return h.newBase + 2*((uint64(id)*31+uint64(i)*17)%span)
}

// canonicalize walks the surviving graph breadth-first from the roots
// and the old-space anchors, keying every object by its field-0 ID.
func canonicalize(t *testing.T, h *Heap, young, olds []object.OOP) fuzzResult {
	t.Helper()
	idOf := func(o object.OOP) int64 {
		if h.Header(o).Format() != object.FmtPointers {
			return int64(h.FetchWord(o, 0))
		}
		return h.Fetch(o, 0).Int()
	}
	enc := func(v object.OOP) string {
		switch {
		case v == object.Nil:
			return "nil"
		case v == object.True:
			return "true"
		case v == object.False:
			return "false"
		case v.IsInt():
			return fmt.Sprintf("i%d", v.Int())
		case !v.IsPtr():
			return fmt.Sprintf("raw%#x", uint64(v))
		default:
			return fmt.Sprintf("#%d", idOf(v))
		}
	}
	res := fuzzResult{Objs: map[int64]canonObj{}}
	var queue []object.OOP
	seen := map[object.OOP]bool{}
	push := func(o object.OOP) {
		if o.IsPtr() && o.Addr() >= object.FirstFreeAddress && !seen[o] {
			seen[o] = true
			queue = append(queue, o)
		}
	}
	for _, o := range young {
		res.Roots = append(res.Roots, enc(o))
		push(o)
	}
	for _, o := range olds {
		push(o)
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		hd := h.Header(o)
		co := canonObj{
			Old:        h.InOldSpace(o),
			Age:        hd.Age(),
			Remembered: hd.Remembered(),
			Class:      enc(h.ClassOf(o)),
		}
		push(h.ClassOf(o))
		id := idOf(o)
		if hd.Format() == object.FmtPointers {
			for i := 1; i < h.FieldCount(o); i++ {
				v := h.Fetch(o, i)
				co.Fields = append(co.Fields, enc(v))
				push(v)
			}
		} else {
			for i := 1; i < hd.BodyWords(); i++ {
				w := h.FetchWord(o, i)
				if w != fuzzRawWord(h, id, i) {
					t.Fatalf("raw object %d word %d = %#x, written as %#x: a collector scanned a raw body",
						id, i, w, fuzzRawWord(h, id, i))
				}
				co.Raw = append(co.Raw, w)
			}
		}
		if _, dup := res.Objs[id]; dup {
			t.Fatalf("duplicate live object ID %d: an object was copied twice", id)
		}
		res.Objs[id] = co
	}
	for _, o := range h.remembered {
		res.Remembered = append(res.Remembered, idOf(o))
	}
	sort.Slice(res.Remembered, func(i, j int) bool { return res.Remembered[i] < res.Remembered[j] })
	return res
}

// runScavFuzzDet runs one seeded workload deterministically on a
// four-processor machine (driver on processor 0) and returns the
// canonical surviving state. The sanitizer rides along and must stay
// clean.
func runScavFuzzDet(t *testing.T, seed int64, parScav bool) fuzzResult {
	t.Helper()
	cfg := fuzzConfig()
	cfg.ParScavenge = parScav
	m := firefly.New(4, firefly.DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	h := New(m, cfg)
	var res fuzzResult
	m.Start(0, func(p *firefly.Proc) {
		young, olds := fuzzOps(h, p, seed)
		res = canonicalize(t, h, young, olds)
	})
	if r := m.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("seed %d (parscavenge=%v): machine stopped with %v", seed, parScav, r)
	}
	if vs := san.Violations(); len(vs) != 0 {
		t.Fatalf("seed %d (parscavenge=%v): sanitizer violations:\n%s", seed, parScav, san.Report())
	}
	if h.Stats().Scavenges == 0 {
		t.Fatalf("seed %d: no scavenge ran; the fuzzer exercised nothing", seed)
	}
	return res
}

// TestScavengeFuzzDifferential is the differential fuzzer: 200 seeds,
// each replayed through the serial and the parallel scavenger, with
// the surviving graphs compared exactly. A failure names the seed.
func TestScavengeFuzzDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	var raws, classes int
	for seed := int64(0); seed < int64(seeds); seed++ {
		serial := runScavFuzzDet(t, seed, false)
		parallel := runScavFuzzDet(t, seed, true)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("seed %d: serial and parallel scavengers diverge\nserial:   %+v\nparallel: %+v",
				seed, serial, parallel)
		}
		for _, o := range serial.Objs {
			if o.Raw != nil {
				raws++
			}
			if o.Class != "nil" {
				classes++
			}
		}
	}
	if raws == 0 || classes == 0 {
		t.Fatalf("survivors across %d seeds: %d raw bodies, %d young class words; fuzzExotic went unexercised",
			seeds, raws, classes)
	}
}

// TestParScavengeUnderParallelMatchesSerial replays a seeded workload
// in parallel host mode (real goroutine processors, ParScavenge on).
// The processor that stops the world runs every worker's share of the
// drain itself, so the surviving graph must equal the deterministic
// serial scavenger's. Under -race this checks that the owner's drain
// and the parked processors touch no word outside the rendezvous.
func TestParScavengeUnderParallelMatchesSerial(t *testing.T) {
	const seed, procs = 7, 4
	want := runScavFuzzDet(t, seed, false)
	cfg := fuzzConfig()
	cfg.Parallel = true
	cfg.ParScavenge = true
	m := firefly.New(procs, firefly.DefaultCosts())
	san := sanitize.New()
	m.SetSanitizer(san)
	h := New(m, cfg)
	var got fuzzResult
	var done atomic.Bool
	m.Start(0, func(p *firefly.Proc) {
		young, olds := fuzzOps(h, p, seed)
		got = canonicalize(t, h, young, olds)
		done.Store(true)
	})
	for i := 1; i < procs; i++ {
		m.Start(i, func(p *firefly.Proc) {
			for !p.Stopped() {
				p.AdvanceIdle(10)
				p.Yield()
			}
		})
	}
	m.SetParallel(true)
	if r := m.Run(done.Load); r != firefly.StopUntil {
		t.Fatalf("host run: Run returned %v", r)
	}
	m.Shutdown()
	if vs := san.Violations(); len(vs) != 0 {
		t.Fatalf("host run: sanitizer violations:\n%s", san.Report())
	}
	if h.Stats().ParScavenges == 0 {
		t.Fatal("host run: no parallel scavenge ran")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("surviving graph diverges from serial\nwant: %+v\ngot:  %+v", want, got)
	}
}

// layoutDigest runs fuzzOps for seeds [0, seeds) on a deterministic
// machine of procs processors, each seed on a fresh heap of cfg, and
// returns the sha256 of every run's old space, past-survivor space,
// entry table and statistics but the entry table's peak, plus the words
// tenured over all seeds.
func layoutDigest(t *testing.T, cfg Config, procs int, seeds int64) (string, uint64) {
	t.Helper()
	sum := sha256.New()
	var tenured uint64
	for seed := int64(0); seed < seeds; seed++ {
		m := firefly.New(procs, firefly.DefaultCosts())
		h := New(m, cfg)
		m.Start(0, func(p *firefly.Proc) { fuzzOps(h, p, seed) })
		if r := m.Run(nil); r != firefly.StopAllDone {
			t.Fatalf("seed %d: machine stopped with %v", seed, r)
		}
		past := &h.surv[h.past]
		for _, ws := range [][]uint64{h.mem[h.old.base:h.old.next], h.mem[past.base:past.next]} {
			binary.Write(sum, binary.LittleEndian, ws)
		}
		binary.Write(sum, binary.LittleEndian, h.remembered)
		st := h.Stats()
		st.RememberedPeak = 0 // pinned by TestRememberedPeakCountsScavengeEntries
		fmt.Fprintf(sum, "%+v", st)
		tenured += st.TenuredWords
	}
	return hex.EncodeToString(sum.Sum(nil)), tenured
}

// TestScavengeLayoutDigest pins the exact heap layout — where every
// survivor lands, which objects tenure, the entry table's order — that
// the one-worker scavenger produces, and that of a four-worker parallel
// scavenge, on a survivor space small enough that overflow tenuring
// fires (the case the differential fuzzer excludes by construction).
// The serial digest is the same on one processor and on four: the
// other processors only stall.
func TestScavengeLayoutDigest(t *testing.T) {
	const seeds = 8
	cfg := fuzzConfig()
	cfg.SurvivorWords = 128
	_, roomy := layoutDigest(t, fuzzConfig(), 1, seeds)
	for _, row := range []struct {
		procs   int
		parScav bool
		want    string
	}{
		{1, false, "c3c447563f6e7e89af54db4ac010f391f4a0b8bd95a1a4457837f110f526eb8c"},
		{4, false, "c3c447563f6e7e89af54db4ac010f391f4a0b8bd95a1a4457837f110f526eb8c"},
		{4, true, "542645ef52de6f5b80a9a23301107f361de005c528fdd0628fcd8a5ec0741e1b"},
	} {
		cfg.ParScavenge = row.parScav
		got, tenured := layoutDigest(t, cfg, row.procs, seeds)
		if got != row.want {
			t.Errorf("procs=%d parscavenge=%v: layout digest %s, want %s", row.procs, row.parScav, got, row.want)
		}
		if tenured <= roomy {
			t.Errorf("procs=%d parscavenge=%v: %d words tenured, %d with a roomy survivor space; overflow tenuring never fired",
				row.procs, row.parScav, tenured, roomy)
		}
	}
}
