// Package heap implements the MS object memory: a single shared word
// array holding old space, an eden, and two survivor semispaces, reclaimed
// by Ungar's Generation Scavenging (the collector used by Berkeley
// Smalltalk and MS, stop-and-copy with tenuring and no object table).
//
// Concurrency follows the paper's strategies: allocation is *serialized*
// under a virtual spinlock (with the paper's future-work alternative,
// *replicated* per-processor allocation areas, available as a policy);
// entry-table maintenance (store checks recording old→new references) is
// serialized; and scavenging stops the world — the allocating processor
// becomes the scavenger and every other processor's clock is advanced to
// the scavenge end, modelling the global-flag + IPC rendezvous.
package heap

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/sanitize"
	"mst/internal/trace"
)

// AllocPolicy selects how new-space allocation is synchronized.
type AllocPolicy int

const (
	// AllocSerialized is the paper's design: one shared allocation
	// pointer guarded by a spinlock.
	AllocSerialized AllocPolicy = iota
	// AllocPerProcessor gives each processor its own allocation chunk
	// refilled from eden under the lock (the paper's §4 suggestion that
	// "replication of the new-object space should have significant
	// benefits").
	AllocPerProcessor
)

func (p AllocPolicy) String() string {
	switch p {
	case AllocSerialized:
		return "serialized"
	case AllocPerProcessor:
		return "per-processor"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", int(p))
	}
}

// Config sizes and configures an object memory. All sizes are in 8-byte
// words.
type Config struct {
	// OldWords is the old-space size. The Firefly had 16 MB of shared
	// memory; the default models a generous old space.
	OldWords int
	// EdenWords is the allocation space size (the paper's s, 80 KB).
	EdenWords int
	// SurvivorWords is the size of each of the two survivor semispaces.
	SurvivorWords int
	// TenureAge is the number of scavenges an object must survive
	// before being promoted to old space.
	TenureAge int
	// Policy selects the allocation synchronization strategy.
	Policy AllocPolicy
	// LocksEnabled enables the virtual locks (MS mode). When false
	// (baseline BS), lock operations cost nothing, modelling the system
	// without multiprocessor support compiled in.
	LocksEnabled bool
	// TortureGC forces a scavenge before every allocation; test use.
	TortureGC bool
	// Parallel marks the heap for parallel host mode: word accessors
	// become host-atomic, allocation statistics are sharded per
	// processor, identity-hash assignment takes a host mutex, and the
	// scavenger stops the world through the machine's rendezvous
	// barrier instead of assuming the deterministic driver stopped it.
	Parallel bool
	// ParScavenge enables the parallel generation scavenger: during the
	// stop-the-world window every processor is a worker that copies
	// survivors from its own work-stealing deque into its own copy
	// buffers. The processor that stopped the world simulates the
	// workers, in parallel host mode too (scavenge time = max over
	// workers of their charged copy costs). Off by default, or on one
	// processor, one worker scavenges: the paper serializes GC (Table 3).
	ParScavenge bool
	// ConcMark enables the concurrent old-space marker: FullCollect
	// becomes a snapshot-at-the-beginning marking cycle whose tracing
	// work runs in bounded slices interleaved with mutator quanta,
	// bracketed by two short stop-the-world windows (snapshot and
	// finalize), followed by a lazy sweep that turns dead old objects
	// into reusable free-list space instead of compacting. A
	// Dijkstra-style deletion barrier in the pointer-store funnels
	// keeps the snapshot sound. Deterministic mode only: Validate
	// refuses it with Parallel.
	// Off by default: the paper stops the world for every collection.
	ConcMark bool
}

// DefaultConfig returns a config mirroring the paper's memory setup,
// scaled for 8-byte words: an 80 KB-equivalent eden, two survivor spaces,
// and a large old space.
func DefaultConfig() Config {
	return Config{
		OldWords:      4 << 20, // 32 MB
		EdenWords:     64 << 10,
		SurvivorWords: 16 << 10,
		TenureAge:     4,
		Policy:        AllocSerialized,
		LocksEnabled:  true,
	}
}

// words is the size of the heap's address range: the immortal objects,
// old space, both survivor spaces and eden.
func (c Config) words() int {
	return object.FirstFreeAddress + c.OldWords + 2*c.SurvivorWords + c.EdenWords
}

// Validate reports a configuration New refuses: a space too small to be
// usable, an address range past what a forwarding-table entry
// (slide.to, a uint32 word address) can hold, or the concurrent marker
// in parallel host mode.
func (c Config) Validate() error {
	switch {
	case c.OldWords < 1024 || c.EdenWords < 256 || c.SurvivorWords < 128:
		return fmt.Errorf("heap: configuration too small")
	case uint64(c.words()) > math.MaxUint32+1:
		return fmt.Errorf("heap: configuration too large")
	case c.Parallel && c.ConcMark:
		// The marker's grey stack, flags and sweep are plain host data
		// that only the deterministic scheduler serializes.
		return fmt.Errorf("heap: -concmark requires the deterministic mode (drop -parallel)")
	}
	return nil
}

type space struct {
	base, limit uint64 // word indices; [base, limit)
	next        uint64
}

func (s *space) contains(a uint64) bool { return a >= s.base && a < s.limit }
func (s *space) free() int              { return int(s.limit - s.next) }

// bump is a chunk its one owner bump-allocates from: a processor's TLAB
// carved from eden, or a scavenge worker's copy buffer carved from the
// future survivor space or old space.
type bump struct{ next, limit uint64 }

func (b *bump) fits(n int) bool   { return b.limit-b.next >= uint64(n) }
func (b *bump) take(n int) uint64 { a := b.next; b.next += uint64(n); return a }

// Stats counts heap activity since creation.
type Stats struct {
	Allocations       uint64       `json:"allocations"`
	AllocatedWords    uint64       `json:"allocated_words"`
	TLABRefills       uint64       `json:"tlab_refills"`
	Scavenges         uint64       `json:"scavenges"`
	CopiedObjects     uint64       `json:"copied_objects"`
	CopiedWords       uint64       `json:"copied_words"`
	TenuredObjects    uint64       `json:"tenured_objects"`
	TenuredWords      uint64       `json:"tenured_words"`
	StoreChecks       uint64       `json:"store_checks"`    // taken store checks (entry-table recordings)
	ParScavenges      uint64       `json:"par_scavenges"`   // scavenges run by the parallel scavenger
	ScavengeSteals    uint64       `json:"scavenge_steals"` // grey objects stolen between scavenge workers
	ScavengeTime      firefly.Time `json:"scavenge_ticks"`
	ScavengeMaxPause  firefly.Time `json:"scavenge_max_pause_ticks"` // longest single stop-the-world scavenge
	LastSurvivors     uint64       `json:"last_survivors"`           // words surviving the most recent scavenge
	RememberedPeak    int          `json:"remembered_peak"`
	OldWordsInUse     uint64       `json:"old_words_in_use"`
	EdenWordsInUse    uint64       `json:"eden_words_in_use"`
	FullCollections   uint64       `json:"full_collections"`
	FullGCTime        firefly.Time `json:"full_gc_ticks"`
	FullGCMaxPause    firefly.Time `json:"full_gc_max_pause_ticks"` // longest single full collection (under ConcMark: longest STW window)
	ReclaimedOldWords uint64       `json:"reclaimed_old_words"`
	ConcMarkCycles    uint64       `json:"conc_mark_cycles"`         // completed concurrent marking cycles
	ConcMarkSlices    uint64       `json:"conc_mark_slices"`         // bounded mark slices drained outside the pauses
	ConcMarkMarked    uint64       `json:"conc_mark_marked_objects"` // old objects blackened by the concurrent marker
	ConcMarkShaded    uint64       `json:"conc_mark_barrier_shades"` // old objects shaded grey by the deletion barrier
}

// Heap is the shared object memory.
type Heap struct {
	cfg Config
	m   *firefly.Machine
	mem []uint64

	old  space
	surv [2]space
	past int // index into surv of the past-survivor space
	eden space

	newBase uint64 // everything at or above this address is new space

	allocLock *firefly.Spinlock
	entryLock *firefly.Spinlock
	tlabs     []bump

	// remembered is the entry table: old objects that may hold
	// references into new space.
	remembered []object.OOP

	rootSlots []*object.OOP
	rootFuncs []func(visit func(*object.OOP))
	preGC     []func()
	postGC    []func()

	handlePools []*handlePool

	// scavenge working state
	inGC bool

	// cm is the concurrent old-space marker (nil unless cfg.ConcMark);
	// the pointer-store funnels consult it for the deletion barrier.
	// oldFree is the sweep-produced free list of old-space spans that
	// reserveOld and AllocateNoGC consult before bumping.
	cm      *concMark
	oldFree []freeSpan

	hashSeed uint32
	// hashMu serializes lazy identity-hash assignment in parallel mode
	// (the only header mutation that can race outside a lock).
	hashMu sync.Mutex

	// par caches cfg.Parallel for the accessor hot paths.
	par bool

	// allocShards holds per-processor allocation counters in parallel
	// mode (a Table-3 replication row: no synchronization because each
	// processor owns its shard); Stats sums them. Padded to keep the
	// shards on separate cache lines.
	allocShards []allocShard

	// rec is the machine's flight recorder (nil when tracing is off),
	// cached here so hot allocation paths pay one pointer check. gcAt is
	// the in-progress scavenge's start, for the events and sanitizer
	// hooks the copy function fires.
	rec  *trace.Recorder
	gcAt int64

	// san is the machine's invariant checker (nil when sanitizing is
	// off), cached like rec. Access hooks fire inside the locked
	// sections; the scavenger emits none (stop-the-world mutation is
	// legitimately lock-free) but triggers the write-barrier verifier.
	san *sanitize.Checker

	// lat is the machine's latency-histogram registry (nil when the
	// distributions are off), cached like rec. The scavenger records
	// its pause and phase durations into it; recording never charges
	// virtual time.
	lat *trace.LatencyHists

	// alp is the allocation-site profiler (nil when off). allocSiteID
	// resolves the currently-allocating site for a processor — the
	// interpreter's executing Class>>selector — so this package stays
	// free of interpreter imports. siteByAddr maps live new-space
	// object addresses to their allocation site; each scavenge rebuilds
	// it into siteNext as objects move (tenured objects drop out — old
	// space is not tracked).
	alp         *trace.AllocProfiler
	allocSiteID func(proc int) int
	siteByAddr  map[uint64]int
	siteNext    map[uint64]int

	stats Stats

	// Collector host scratch, kept from one collection to the next and
	// part of no snapshot: the three root visitors (built once, so that
	// handing one to a root function allocates no closure), the mark
	// stack, and the compactor's plan with its forwarding table, which
	// the first full collection allocates and later ones grow. Last in
	// the struct on purpose: among the fields above, it moved gc_churn's
	// request median by 4 %.
	seedRoot, markRoot, slideRoot func(*object.OOP)
	markStack                     []uint64
	plan                          slide

	// oldHigh is the highest value old.next has reached, raised where the
	// compactor lowers it: old space is written only below
	// max(oldHigh, old.next), which is what Release re-zeroes.
	oldHigh uint64

	// scav is the scavenger's workers and drain state, host scratch
	// like the above.
	scav parScav
}

// released is the free list of backing arrays that Release handed back,
// by length, for New to reuse. Every array on it is all zero, so a heap
// built on one cannot be told from a fresh one. It holds at most the
// peak number of heaps of each geometry that were live at once.
var released = struct {
	sync.Mutex
	byLen map[int][][]uint64
}{byLen: make(map[int][][]uint64)}

// pacerFloor is the Go runtime's smallest heap goal (GOGC=100): a heap
// array at least this large can start a collection by itself.
const pacerFloor = 4 << 20

// newMem returns an all-zero array of n words: a released one if there
// is one, else a fresh make. A large fresh array can grow the Go heap
// several times over at once, and the collection that allocation starts
// is timed by the runtime's pacer against whatever the caller allocates
// next, within a few hundred microseconds; that one estimate then sets
// where later collections start, and so the process's peak resident
// set, by up to a fifth. Finishing the cycle here, before anything else
// is allocated, leaves the pacer nothing to time.
func newMem(n int) []uint64 {
	if mem := reuseMem(n); mem != nil {
		return mem
	}
	mem := make([]uint64, n)
	if 8*n >= pacerFloor {
		runtime.GC()
	}
	return mem
}

// reuseMem takes a released array of n words off the free list, or
// returns nil.
func reuseMem(n int) []uint64 {
	released.Lock()
	defer released.Unlock()
	free := released.byLen[n]
	if len(free) == 0 {
		return nil
	}
	mem := free[len(free)-1]
	free[len(free)-1] = nil
	released.byLen[n] = free[:len(free)-1]
	return mem
}

// Release hands h's backing array to the next New of the same geometry.
// It re-zeroes exactly the words h could have written — old space up to
// its high-water mark, and all of new space — and leaves h without
// memory, so any later access panics instead of reaching another heap's
// words. The caller must have stopped every processor of h's machine;
// a second call does nothing.
//
//msvet:heap-writer the machine is shut down: no processor can reach h.mem, and the words cleared here are handed to no one until the push below
//msvet:atomic-excluded every processor goroutine has returned before Release is called
func (h *Heap) Release() {
	mem := h.mem
	if mem == nil {
		return
	}
	h.mem = nil
	clear(mem[:max(h.oldHigh, h.old.next)])
	clear(mem[h.newBase:])
	released.Lock()
	defer released.Unlock()
	released.byLen[len(mem)] = append(released.byLen[len(mem)], mem)
}

// OOMError is thrown (as a panic) when old space is exhausted; the virtual
// machine recovers it at the interpreter boundary.
type OOMError struct {
	NeedWords int
}

func (e OOMError) Error() string {
	return fmt.Sprintf("heap: old space exhausted allocating %d words", e.NeedWords)
}

// New builds an object memory on machine m and creates the three immortal
// objects nil, true, and false at their fixed addresses (their class words
// are patched by the image bootstrap).
//
//msvet:heap-writer single-threaded construction: the immortal-object words are written before the heap pointer escapes to any processor
//msvet:atomic-excluded no goroutine but the constructor can reach h.mem until New returns
func New(m *firefly.Machine, cfg Config) *Heap {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	h := &Heap{
		cfg: cfg,
		m:   m,
		par: cfg.Parallel,
		mem: newMem(cfg.words()),
		rec: m.Recorder(),
		san: m.Sanitizer(),
		lat: m.LatencyHists(),
	}
	h.allocShards = make([]allocShard, m.NumProcs())
	base := uint64(object.FirstFreeAddress)
	h.old = space{base: base, limit: base + uint64(cfg.OldWords), next: base}
	a := h.old.limit
	h.surv[0] = space{base: a, limit: a + uint64(cfg.SurvivorWords), next: a}
	a = h.surv[0].limit
	h.surv[1] = space{base: a, limit: a + uint64(cfg.SurvivorWords), next: a}
	a = h.surv[1].limit
	h.eden = space{base: a, limit: a + uint64(cfg.EdenWords), next: a}
	h.newBase = h.surv[0].base
	h.past = 0
	h.seedRoot = func(slot *object.OOP) {
		if s := &h.scav; s.shared {
			s.deal(h, slot)
		} else {
			*slot = h.parForward(s.ws[0], *slot)
		}
	}
	h.markRoot = func(slot *object.OOP) {
		if w := uint64(*slot); w&1 == 0 && w >= h.old.base {
			h.mark(w)
		}
	}
	h.slideRoot = func(slot *object.OOP) { *slot = object.OOP(h.plan.of(uint64(*slot))) }

	h.allocLock = m.NewSpinlock("alloc", cfg.LocksEnabled)
	h.entryLock = m.NewSpinlock("entry-table", cfg.LocksEnabled)
	// Table-3 serialization rows owned by the heap: the shared
	// allocation pointers (eden and old space) and the entry table.
	h.san.RegisterGuard("eden", "alloc")
	h.san.RegisterGuard("old-space", "alloc")
	h.san.RegisterGuard("remembered-set", "entry-table")
	h.tlabs = make([]bump, m.NumProcs())
	h.handlePools = make([]*handlePool, m.NumProcs())
	for i := range h.handlePools {
		h.handlePools[i] = &handlePool{}
	}
	if cfg.ConcMark {
		h.cm = &concMark{h: h}
	}

	// The immortal objects live below old space at fixed addresses.
	for _, fixed := range []object.OOP{object.Nil, object.True, object.False} {
		h.mem[fixed.Addr()] = uint64(object.MakeHeader(2, object.FmtPointers, 0))
		h.mem[fixed.Addr()+1] = uint64(object.Invalid) // class patched at genesis
	}
	return h
}

// Machine returns the machine this heap charges time to.
func (h *Heap) Machine() *firefly.Machine { return h.m }

// Config returns the heap's configuration.
func (h *Heap) Config() Config { return h.cfg }

// SetAllocProfiler attaches the allocation-site profiler. siteID
// resolves the currently-allocating site for a processor (the
// interpreter supplies "Class>>selector" ids). Deterministic mode
// only: attribution reads unsynchronized interpreter state and the
// site maps are unguarded — the core config layer enforces this.
func (h *Heap) SetAllocProfiler(a *trace.AllocProfiler, siteID func(proc int) int) {
	h.alp = a
	h.allocSiteID = siteID
	h.siteByAddr = make(map[uint64]int)
}

// Stats returns a snapshot of heap statistics. Per-processor shards
// are summed in, so the totals match the unsharded accounting exactly.
// The shard loads are atomic, making Stats safe to call (for racy but
// per-counter-consistent values) while parallel processors allocate.
func (h *Heap) Stats() Stats {
	s := h.stats
	for i := range h.allocShards {
		sh := &h.allocShards[i]
		s.Allocations += sh.allocations.Load()
		s.AllocatedWords += sh.allocatedWords.Load()
		s.TLABRefills += sh.tlabRefills.Load()
	}
	s.OldWordsInUse = h.old.next - h.old.base
	s.EdenWordsInUse = h.eden.next - h.eden.base
	return s
}

// allocShard is one processor's private allocation counters; the pad
// keeps concurrent bumps off each other's cache lines. The fields are
// atomic only so readers (the stat primitive, msbench) never race the
// owner's bumps — each shard still has exactly one writer.
type allocShard struct {
	allocations    atomic.Uint64
	allocatedWords atomic.Uint64
	tlabRefills    atomic.Uint64
	_              [5]uint64
}

// InNewSpace reports whether a pointer OOP refers to new space (eden or a
// survivor semispace).
func (h *Heap) InNewSpace(o object.OOP) bool {
	return o.IsPtr() && o.Addr() >= h.newBase
}

// InOldSpace reports whether a pointer OOP refers to old space or the
// immortal area.
func (h *Heap) InOldSpace(o object.OOP) bool {
	return o.IsPtr() && o != object.Invalid && o.Addr() < h.newBase
}

// refWords returns the reference-holding words of the object at addr, as
// a view of object memory: the class word, followed by the body when the
// body holds pointers. It is the collectors' and the verifiers' one
// definition of "the words of an object the GC looks at"; a caller that
// stores through the view is moving or re-pointing objects with the
// world stopped.
//
//msvet:heap-writer the view is handed only to collector loops that read it or store through it with the world stopped (the scavenge scan, mark, compactor fix-up), to the concurrent marker's scans, which only read it, and to the read-only walks of verify.go and CheckInvariants; no mutator path can reach it
//msvet:atomic-excluded every caller runs with the world stopped (the scavenge, whose one drain runs on the processor that stopped it; mark-compact; the marker's two windows), on a caller-quiesced heap (the verifiers), or in a concurrent marker slice, which runs in the deterministic mode only, where no other host goroutine touches h.mem
func (h *Heap) refWords(addr uint64) []uint64 {
	n := uint64(object.HeaderWords)
	if hd := object.Header(h.mem[addr]); hd.Format() == object.FmtPointers {
		n = uint64(hd.SizeWords())
	}
	return h.mem[addr+1 : addr+n]
}

// maxFillerWords is the largest gap one filler header can cover (header
// sizes must be even); fillGap splits a longer gap into several fillers.
const maxFillerWords = object.MaxObjectWords - 1

// fillGap caps the unused words [base, limit) with filler pseudo-objects
// — raw-words format, Invalid class — so the space stays linearly
// walkable by CheckInvariants, the verifiers, the collectors and
// snapshots. It is the one filler writer: a retired copy buffer's tail,
// the rest of a carved free span and a swept dead run all go through
// it. Object sizes are even, so a gap is an even word count >=
// HeaderWords, or zero.
func (h *Heap) fillGap(base, limit uint64) {
	for base < limit {
		n := min(limit-base, maxFillerWords)
		h.storeWord(base, uint64(object.MakeHeader(int(n), object.FmtWords, 0)))
		h.storeWord(base+1, uint64(object.Invalid))
		base += n
	}
}

// isFiller reports whether the object at a is a filler fillGap wrote.
func (h *Heap) isFiller(a uint64) bool {
	return object.OOP(h.loadWord(a+1)) == object.Invalid &&
		object.Header(h.loadWord(a)).Format() == object.FmtWords
}

// loadWord/storeWord are the two memory primitives every accessor
// funnels through. In parallel host mode they are host-atomic: the
// simulated words are genuinely shared between processor goroutines,
// and a word store on the modeled hardware is atomic, so the host must
// match it. The deterministic mode keeps the plain loads and stores
// (no host-synchronization cost, bit-identical behavior). Higher-level
// races — two Smalltalk processes storing into the same object without
// a lock — remain exactly as visible as they would be on the Firefly.
func (h *Heap) loadWord(i uint64) uint64 {
	if h.par {
		return atomic.LoadUint64(&h.mem[i])
	}
	return h.mem[i]
}

//msvet:heap-writer the single exit point of the barrier API: every checked store (Store/StoreNoCheck) and collector copy funnels through here
func (h *Heap) storeWord(i uint64, v uint64) {
	if h.par {
		atomic.StoreUint64(&h.mem[i], v)
		return
	}
	h.mem[i] = v
}

// casHeader applies f to o's header with a compare-and-swap loop. The
// header word carries independently-locked bits (the remembered bit
// under the entry-table lock, the identity hash under hashMu), so in
// parallel mode a plain read-modify-write could lose the other lock's
// update; the CAS makes each bit-field update atomic with respect to
// the whole word.
//
//msvet:heap-writer the CAS loop IS the header-word store discipline; header bits never hold OOPs, so no store check applies
func (h *Heap) casHeader(o object.OOP, f func(object.Header) object.Header) object.Header {
	addr := o.Addr()
	for {
		old := atomic.LoadUint64(&h.mem[addr])
		hd := f(object.Header(old))
		if atomic.CompareAndSwapUint64(&h.mem[addr], old, uint64(hd)) {
			return hd
		}
	}
}

// Header returns the object header of o.
func (h *Heap) Header(o object.OOP) object.Header {
	return object.Header(h.loadWord(o.Addr()))
}

// SetHeader replaces the object header of o.
func (h *Heap) SetHeader(o object.OOP, hd object.Header) {
	h.storeWord(o.Addr(), uint64(hd))
}

// ClassOf returns the class word of a pointer OOP. SmallIntegers have no
// class word; the interpreter maps them to the SmallInteger class.
func (h *Heap) ClassOf(o object.OOP) object.OOP {
	return object.OOP(h.loadWord(o.Addr() + 1))
}

// SetClass stores the class word of o, with a store check (a class in new
// space referenced from an old object must be remembered).
func (h *Heap) SetClass(p *firefly.Proc, o, class object.OOP) {
	if h.cm != nil {
		h.deletionBarrier(o.Addr() + 1)
	}
	h.storeWord(o.Addr()+1, uint64(class))
	h.storeCheck(p, o, class)
}

// Fetch returns pointer field i (0-based, past the header) of o.
func (h *Heap) Fetch(o object.OOP, i int) object.OOP {
	return object.OOP(h.loadWord(o.Addr() + object.HeaderWords + uint64(i)))
}

// Store writes pointer field i of o with the generation-scavenging store
// check: recording an old object that now references new space in the
// entry table, serialized under the entry-table lock (paper §3.1).
func (h *Heap) Store(p *firefly.Proc, o object.OOP, i int, v object.OOP) {
	if h.cm != nil {
		h.deletionBarrier(o.Addr() + object.HeaderWords + uint64(i))
	}
	h.storeWord(o.Addr()+object.HeaderWords+uint64(i), uint64(v))
	h.storeCheck(p, o, v)
}

// StoreNoCheck writes pointer field i of o without a store check. Use only
// when v is provably not a new-space reference (SmallIntegers, nil) or o
// is provably in new space.
func (h *Heap) StoreNoCheck(o object.OOP, i int, v object.OOP) {
	if h.cm != nil {
		h.deletionBarrier(o.Addr() + object.HeaderWords + uint64(i))
	}
	h.storeWord(o.Addr()+object.HeaderWords+uint64(i), uint64(v))
}

// sanAccess reports an access to a serialized heap structure to the
// invariant checker; call it from inside the guarding critical
// section. The scavenger deliberately calls nothing here: during a
// stop-the-world collection the scavenging processor mutates every
// space lock-free, which is the reorganization the paper's rendezvous
// makes safe.
func (h *Heap) sanAccess(p *firefly.Proc, structure string) {
	h.san.OnAccess(p.ID(), int64(p.Now()), structure)
}

func (h *Heap) storeCheck(p *firefly.Proc, o, v object.OOP) {
	if o.Addr() >= h.newBase || !h.InNewSpace(v) {
		return
	}
	if p == nil {
		// Bootstrap-time store; everything lives in old space and no
		// collection can run, so no entry is needed. Reaching here
		// with a new-space value would be a genesis bug.
		panic("heap: store check with no processor")
	}
	hd := h.Header(o)
	if hd.Remembered() {
		return
	}
	h.entryLock.Acquire(p)
	h.sanAccess(p, "remembered-set")
	hd = h.Header(o) // re-read under the lock
	if !hd.Remembered() {
		if h.par {
			h.casHeader(o, func(hd object.Header) object.Header {
				return hd.SetRemembered(true)
			})
		} else {
			h.SetHeader(o, hd.SetRemembered(true))
		}
		h.remembered = append(h.remembered, o)
		if len(h.remembered) > h.stats.RememberedPeak {
			h.stats.RememberedPeak = len(h.remembered)
		}
		h.stats.StoreChecks++
		p.Advance(h.m.Costs().StoreCheck)
	}
	h.entryLock.Release(p)
}

// RememberedCount returns the current entry-table population.
func (h *Heap) RememberedCount() int { return len(h.remembered) }

// FetchByte returns byte i of a FmtBytes object.
func (h *Heap) FetchByte(o object.OOP, i int) byte {
	w := h.loadWord(o.Addr() + object.HeaderWords + uint64(i>>3))
	return byte(w >> (uint(i&7) * 8))
}

// StoreByte writes byte i of a FmtBytes object. The read-modify-write
// is word-atomic in parallel mode but not interlocked: concurrent
// unsynchronized byte stores into the same word can lose an update,
// exactly as adjacent byte stores could on the modeled hardware.
func (h *Heap) StoreByte(o object.OOP, i int, b byte) {
	idx := o.Addr() + object.HeaderWords + uint64(i>>3)
	shift := uint(i&7) * 8
	h.storeWord(idx, h.loadWord(idx)&^(0xFF<<shift)|uint64(b)<<shift)
}

// ByteLen returns the logical byte length of a FmtBytes object.
func (h *Heap) ByteLen(o object.OOP) int { return h.Header(o).ByteLen() }

// Bytes copies out the contents of a FmtBytes object.
func (h *Heap) Bytes(o object.OOP) []byte {
	out := make([]byte, h.ByteLen(o))
	h.readBytes(o, out)
	return out
}

// AppendBytes appends the contents of a FmtBytes object to dst.
func (h *Heap) AppendBytes(dst []byte, o object.OOP) []byte {
	n, m := len(dst), h.ByteLen(o)
	if cap(dst)-n < m {
		// Not slices.Grow: its make-and-append allocates twice under -race.
		dst = append(make([]byte, 0, n+m), dst...)
	}
	dst = dst[:n+m]
	h.readBytes(o, dst[n:])
	return dst
}

// readBytes fills out, which is ByteLen(o) long, from o a word at a time.
func (h *Heap) readBytes(o object.OOP, out []byte) {
	base := o.Addr() + object.HeaderWords
	i := 0
	for ; i+8 <= len(out); i += 8 {
		binary.LittleEndian.PutUint64(out[i:], h.loadWord(base+uint64(i>>3)))
	}
	if i < len(out) {
		for w := h.loadWord(base + uint64(i>>3)); i < len(out); i++ {
			out[i] = byte(w)
			w >>= 8
		}
	}
}

// CompareBytes orders two FmtBytes objects as bytes.Compare orders their
// contents, without copying either out of the heap.
func (h *Heap) CompareBytes(a, b object.OOP) int {
	na, nb := h.ByteLen(a), h.ByteLen(b)
	n := min(na, nb)
	ba, bb := a.Addr()+object.HeaderWords, b.Addr()+object.HeaderWords
	i := 0
	for ; i+8 <= n; i += 8 {
		// Byte-reversed, a little-endian word orders as its bytes do.
		wa, wb := h.loadWord(ba+uint64(i>>3)), h.loadWord(bb+uint64(i>>3))
		if wa != wb {
			return cmp.Compare(bits.ReverseBytes64(wa), bits.ReverseBytes64(wb))
		}
	}
	for ; i < n; i++ {
		if ca, cb := h.FetchByte(a, i), h.FetchByte(b, i); ca != cb {
			return cmp.Compare(ca, cb)
		}
	}
	return cmp.Compare(na, nb)
}

// EqualString reports whether a FmtBytes object holds exactly s,
// comparing in place: a name lookup reads no Go string out of the heap.
func (h *Heap) EqualString(o object.OOP, s string) bool {
	if h.ByteLen(o) != len(s) {
		return false
	}
	base := o.Addr() + object.HeaderWords
	for i := 0; i < len(s); i += 8 {
		w := h.loadWord(base + uint64(i>>3))
		for j := i; j < min(i+8, len(s)); j++ {
			if byte(w) != s[j] {
				return false
			}
			w >>= 8
		}
	}
	return true
}

// String answers the contents of a FmtBytes object as a Go string,
// copied out of the heap once.
func (h *Heap) String(o object.OOP) string {
	b := h.Bytes(o)
	return unsafe.String(unsafe.SliceData(b), len(b)) // b is never written again
}

// WriteBytes fills a FmtBytes object from b (which must fit exactly or be
// shorter than the object).
func (h *Heap) WriteBytes(o object.OOP, b []byte) { writeBytes(h, o, b) }

// WriteString is WriteBytes from a string, with no intermediate copy.
func (h *Heap) WriteString(o object.OOP, s string) { writeBytes(h, o, s) }

// writeBytes stores b into o a word at a time, little-endian as FetchByte
// reads it. The last partial word is a read-modify-write that keeps the
// object's bytes past len(b).
func writeBytes[T string | []byte](h *Heap, o object.OOP, b T) {
	if len(b) > h.ByteLen(o) {
		panic("heap: WriteBytes overflow")
	}
	base := o.Addr() + object.HeaderWords
	i := 0
	for ; i+8 <= len(b); i += 8 {
		h.storeWord(base+uint64(i>>3), uint64(b[i])|uint64(b[i+1])<<8|uint64(b[i+2])<<16|uint64(b[i+3])<<24|
			uint64(b[i+4])<<32|uint64(b[i+5])<<40|uint64(b[i+6])<<48|uint64(b[i+7])<<56)
	}
	if i == len(b) {
		return
	}
	idx := base + uint64(i>>3)
	w := h.loadWord(idx)
	for shift := uint(0); i < len(b); i, shift = i+1, shift+8 {
		w = w&^(0xFF<<shift) | uint64(b[i])<<shift
	}
	h.storeWord(idx, w)
}

// FetchWord returns raw word i of a FmtWords object.
func (h *Heap) FetchWord(o object.OOP, i int) uint64 {
	return h.loadWord(o.Addr() + object.HeaderWords + uint64(i))
}

// StoreWord writes raw word i of a FmtWords object.
func (h *Heap) StoreWord(o object.OOP, i int, w uint64) {
	h.storeWord(o.Addr()+object.HeaderWords+uint64(i), w)
}

// FieldCount returns the logical field count of a pointers/words object.
func (h *Heap) FieldCount(o object.OOP) int { return h.Header(o).FieldCount() }

// IdentityHash returns o's identity hash, assigning one lazily. Hashes are
// stable across scavenges (they live in the header), which is what lets
// method dictionaries hash on object identity even though objects move.
func (h *Heap) IdentityHash(o object.OOP) uint32 {
	if o.IsInt() {
		return uint32(o.Int()) & object.MaxHash
	}
	hd := h.Header(o)
	if v := hd.Hash(); v != 0 {
		return v
	}
	if h.par {
		// Assignment mutates the header outside any virtual lock; a
		// host mutex keeps the seed and the double-checked header
		// update consistent across processors.
		h.hashMu.Lock()
		defer h.hashMu.Unlock()
		hd = h.Header(o)
		if v := hd.Hash(); v != 0 {
			return v
		}
	}
	h.hashSeed++
	v := h.hashSeed & object.MaxHash
	if v == 0 {
		h.hashSeed++
		v = 1
	}
	if h.par {
		h.casHeader(o, func(hd object.Header) object.Header { return hd.SetHash(v) })
	} else {
		h.SetHeader(o, hd.SetHash(v))
	}
	return v
}

// AddRoot registers a VM-level slot holding an OOP the scavenger must
// treat as a root and update when the object moves.
func (h *Heap) AddRoot(slot *object.OOP) {
	h.rootSlots = append(h.rootSlots, slot)
}

// AddRootFunc registers a callback that visits a dynamic set of root
// slots (for example a symbol table held in a Go slice).
func (h *Heap) AddRootFunc(f func(visit func(*object.OOP))) {
	h.rootFuncs = append(h.rootFuncs, f)
}

// OnPreScavenge registers a hook run before each scavenge (for example to
// flush method caches holding raw oops).
func (h *Heap) OnPreScavenge(f func()) { h.preGC = append(h.preGC, f) }

// OnPostScavenge registers a hook run after each scavenge.
func (h *Heap) OnPostScavenge(f func()) { h.postGC = append(h.postGC, f) }

// runHooks runs a collection's pre- or post-hooks in registration order.
func runHooks(hooks []func()) {
	for _, f := range hooks {
		f()
	}
}
