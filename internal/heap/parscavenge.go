package heap

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/trace"
)

// The parallel generation scavenger (Config.ParScavenge): instead of
// the paper's single scavenging processor (Table 3 serializes GC),
// every rendezvoused processor cooperatively copies survivors during
// the stop-the-world window.
//
//   - Work: one grey-object work-stealing deque per worker
//     (worklist.go), seeded deterministically from the root slots,
//     handle pools, and remembered set.
//   - Space: per-worker copy buffers — TLAB-style chunks carved from
//     the shared future-survivor and old spaces under a host mutex;
//     a retired buffer's unused tail is capped with a filler object
//     so the spaces stay linearly walkable.
//   - Claiming: the first worker to CAS an object's header to the
//     busy sentinel owns the copy; it publishes the forwarding
//     pointer and then the forwarded header, release-ordered, so a
//     racing worker that loses the CAS spins briefly and reads the
//     winner's forwarding pointer. The sanitizer models the claim as
//     an ownership transfer (OnGCClaim/OnGCPublish).
//   - Termination: in host mode an active-worker count detects
//     quiescence (the last worker to run dry has just swept every
//     deque, and only active workers produce work); the owner then
//     waits out RunStopped's join barrier before resuming the world.
//
// In deterministic mode the same code is driven by a single goroutine
// simulating the parallel schedule: the worker with the smallest
// accumulated virtual cost acts next (stealing from the fullest deque
// when it runs dry), so the schedule is a pure function of the heap
// contents, and the scavenge wall time is ScavengeBase + the maximum
// worker cost + the termination barrier. With ParScavenge off none of
// this runs and the serial scavenger's behavior is bit-identical.

// parScavChunkWords is the copy-buffer chunk size carved from the
// shared spaces. Small enough that per-worker fragmentation (one
// filler-capped tail per worker per space) stays a fraction of a
// survivor space, large enough that carving is rare.
const parScavChunkWords = 256

// scavBusyHeader is the claim sentinel a worker CASes into an object's
// header while it copies the object: forwarded bit set, size zero. No
// real header (sizes are >= HeaderWords) and no final forwarding
// header (which keeps the original size bits) ever looks like it.
var scavBusyHeader = object.Header(0).SetForwarded()

// errParScavAbort unwinds helper workers after another worker failed
// (old-space OOM): spinning on a busy header would otherwise deadlock
// on a claim that will never be published.
var errParScavAbort = errors.New("heap: parallel scavenge aborted")

// scavWorker is one processor's share of a parallel scavenge.
type scavWorker struct {
	id  int
	wl  worklist
	to  bump // copy buffer in the future survivor space
	old bump // copy buffer in old space (tenuring)

	cost           firefly.Time // virtual copy + coordination cost
	steals         uint64
	chunks         uint64
	copiedObjects  uint64
	copiedWords    uint64
	tenuredObjects uint64
	tenuredWords   uint64
	remembered     []object.OOP // old objects still referencing new space
}

// parScav is the state of one parallel scavenge.
type parScav struct {
	h  *Heap
	ws []*scavWorker

	// Host-mode termination detection and failure plumbing.
	active  atomic.Int32
	done    atomic.Bool
	aborted atomic.Bool
	//msvet:stw-safe worker panic-recovery lock: exists only for the duration of one scavenge window; the parked mutators can never observe it held
	errMu sync.Mutex
	err   any
}

// newParScav builds the per-worker state and seeds the deques.
// Seeding is deterministic: root slots (deduplicated, in registration
// order — root functions such as the interpreter's inline-cache
// visitor already visit in sorted-oop order) round-robin across
// workers; each handle pool goes to the worker whose processor owns
// it (a replication row); remembered-set entries round-robin in table
// order. The remembered set is rebuilt from the workers' kept lists
// when the scavenge finishes.
func (h *Heap) newParScav() *parScav {
	nw := h.m.NumProcs()
	s := &parScav{h: h, ws: make([]*scavWorker, nw)}
	for i := range s.ws {
		s.ws[i] = &scavWorker{id: i}
	}
	seen := make(map[*object.OOP]struct{})
	n := 0
	add := func(slot *object.OOP) {
		if slot == nil {
			return
		}
		if _, dup := seen[slot]; dup {
			return
		}
		seen[slot] = struct{}{}
		if v := *slot; !v.IsPtr() || v.Addr() < h.newBase {
			return
		}
		s.ws[n%nw].wl.push(greyItem{slot: slot})
		n++
	}
	for _, slot := range h.rootSlots {
		add(slot)
	}
	for _, f := range h.rootFuncs {
		f(add)
	}
	for pi, hp := range h.handlePools {
		w := s.ws[pi%nw]
		for i := range hp.slots {
			if v := hp.slots[i]; !v.IsPtr() || v.Addr() < h.newBase {
				continue
			}
			w.wl.push(greyItem{slot: &hp.slots[i]})
		}
	}
	for i, o := range h.remembered {
		s.ws[i%nw].wl.push(greyItem{obj: o})
	}
	h.remembered = h.remembered[:0]
	return s
}

// parScavenge replaces the serial scavenger's phases 1–3: drain the
// seeded deques (simulated or host-parallel), then merge the workers'
// results and charge the virtual cost. Called from Scavenge with the
// world stopped and h.to reset; the caller runs the common epilogue
// (flip, stats, verifier, hooks).
func (h *Heap) parScavenge(p *firefly.Proc, start firefly.Time) {
	s := h.newParScav()
	if h.par {
		h.m.RunStopped(p, func(q *firefly.Proc) {
			w := s.ws[q.ID()]
			if h.scavDelay != nil {
				h.scavDelay(w.id)
			}
			s.drainHost(h, w)
			q.Advance(w.cost)
		})
		if s.err != nil {
			panic(s.err)
		}
	} else {
		s.drainDet(h)
	}
	h.finishParScav(s, p, start)
}

// drainDet simulates the parallel drain deterministically: the worker
// with the smallest accumulated virtual cost (ties to the lowest id)
// processes one item per step, stealing from the victim with the most
// queued work when its own deque is dry. The schedule — and therefore
// every copy decision and the final heap layout — is a pure function
// of the seeded work.
func (s *parScav) drainDet(h *Heap) {
	c := h.m.Costs()
	for {
		total := 0
		for _, w := range s.ws {
			total += w.wl.size()
		}
		if total == 0 {
			return
		}
		w := s.ws[0]
		for _, x := range s.ws[1:] {
			if x.cost < w.cost {
				w = x
			}
		}
		it, ok := w.wl.pop()
		if !ok {
			var victim *scavWorker
			best := 0
			for _, x := range s.ws {
				if x == w {
					continue
				}
				if sz := x.wl.size(); sz > best {
					best, victim = sz, x
				}
			}
			it, _ = victim.wl.steal()
			w.steals++
			w.cost += c.ScavengeSteal
			h.rec.Emit(trace.KScavSteal, w.id, h.gcAt+int64(w.cost), int64(victim.id), 0, "")
		}
		h.scanGrey(s, w, it)
	}
}

// drainHost is one worker's real drain loop in parallel host mode.
// Termination: a worker leaves the active set only after its own pop
// and a full steal sweep both failed; when the count hits zero the
// last worker has just seen every deque empty and no active producer
// remains, so the scavenge is complete. A worker that sees new work
// re-joins the active set before taking any.
func (s *parScav) drainHost(h *Heap, w *scavWorker) {
	defer func() {
		if r := recover(); r != nil {
			if r != errParScavAbort {
				s.errMu.Lock()
				if s.err == nil {
					s.err = r
				}
				s.errMu.Unlock()
			}
			s.aborted.Store(true)
			s.done.Store(true)
			s.active.Add(-1)
		}
	}()
	if s.done.Load() {
		return
	}
	s.active.Add(1)
	for {
		it, ok := w.wl.pop()
		if !ok {
			it, ok = s.stealHost(h, w)
		}
		if ok {
			h.scanGrey(s, w, it)
			continue
		}
		if s.active.Add(-1) == 0 {
			s.done.Store(true)
			return
		}
		for {
			if s.done.Load() {
				return
			}
			if s.anyWork() {
				s.active.Add(1)
				break
			}
			runtime.Gosched()
		}
	}
}

// stealHost sweeps the other workers' deques once, starting just past
// this worker's id.
func (s *parScav) stealHost(h *Heap, w *scavWorker) (greyItem, bool) {
	nw := len(s.ws)
	for i := 1; i < nw; i++ {
		victim := s.ws[(w.id+i)%nw]
		if it, ok := victim.wl.steal(); ok {
			w.steals++
			w.cost += h.m.Costs().ScavengeSteal
			h.rec.Emit(trace.KScavSteal, w.id, h.gcAt+int64(w.cost), int64(victim.id), 0, "")
			return it, true
		}
	}
	return greyItem{}, false
}

// anyWork reports whether any deque holds an item.
func (s *parScav) anyWork() bool {
	for _, w := range s.ws {
		if w.wl.size() > 0 {
			return true
		}
	}
	return false
}

// scanGrey processes one work item: forward a root slot in place, or
// scan a grey object as scanObject does (through refWords, forwarding
// each word that references new space), maintaining entry-table
// membership for old objects (remembered entries and fresh tenurees
// alike).
func (h *Heap) scanGrey(s *parScav, w *scavWorker, it greyItem) {
	if it.slot != nil {
		*it.slot = h.parForward(s, w, *it.slot)
		return
	}
	refsNew := false
	newBase := h.newBase
	ws := h.refWords(it.obj.Addr())
	for i, wd := range ws {
		if wd&1 != 0 || wd < newBase {
			continue
		}
		nw := uint64(h.parForward(s, w, object.OOP(wd)))
		ws[i] = nw
		if nw >= newBase {
			refsNew = true
		}
	}
	if it.obj.Addr() >= newBase {
		return
	}
	if hd := h.Header(it.obj); refsNew {
		if !hd.Remembered() {
			h.SetHeader(it.obj, hd.SetRemembered(true))
		}
		w.remembered = append(w.remembered, it.obj)
	} else if hd.Remembered() {
		h.SetHeader(it.obj, hd.SetRemembered(false))
	}
}

// parForward returns the new location of o, claiming and copying it if
// this worker gets there first. The claim CAS swaps the header for the
// busy sentinel; losers spin until the winner publishes the forwarding
// pointer (host mode only — the deterministic simulation never
// contends). The copy is pushed onto this worker's deque for scanning.
func (h *Heap) parForward(s *parScav, w *scavWorker, o object.OOP) object.OOP {
	if !o.IsPtr() || o.Addr() < h.newBase {
		return o
	}
	addr := o.Addr()
	for {
		hd := object.Header(atomic.LoadUint64(&h.mem[addr]))
		if hd == scavBusyHeader {
			if s.aborted.Load() {
				panic(errParScavAbort)
			}
			runtime.Gosched()
			continue
		}
		if hd.Forwarded() {
			return object.OOP(atomic.LoadUint64(&h.mem[addr+1]))
		}
		if !atomic.CompareAndSwapUint64(&h.mem[addr], uint64(hd), uint64(scavBusyHeader)) {
			continue
		}
		h.san.OnGCClaim(w.id, h.gcAt, addr)
		size := hd.SizeWords()
		age := hd.Age() + 1
		dst, tenured := w.allocCopy(h, size, age >= h.cfg.TenureAge)
		if h.alp != nil {
			// Allocation-site profiling is deterministic-mode only
			// (enforced by core), where the drain runs on one
			// goroutine, so the site maps never race.
			h.noteCopy(addr, dst, size, age, tenured)
		}
		if tenured {
			age = 0
			w.tenuredObjects++
			w.tenuredWords += uint64(size)
			h.rec.Emit(trace.KTenure, w.id, h.gcAt+int64(w.cost), int64(size), 0, "")
		}
		copy(h.mem[dst+1:dst+uint64(size)], h.mem[addr+1:addr+uint64(size)])
		nh := hd.SetAge(age).SetRemembered(false)
		if tenured && h.allocBlack(dst) {
			// Born black under an active concurrent mark (concmark.go).
			nh = nh.SetMarked(true)
		}
		h.storeWord(dst, uint64(nh))
		h.san.OnGCPublish(w.id, h.gcAt, addr)
		atomic.StoreUint64(&h.mem[addr+1], dst)
		atomic.StoreUint64(&h.mem[addr], uint64(hd.SetForwarded()))
		c := h.m.Costs()
		w.cost += c.ScavengePerObject + c.ScavengePerWord*firefly.Time(size)
		w.copiedObjects++
		w.copiedWords += uint64(size)
		w.wl.push(greyItem{obj: object.FromAddr(dst)})
		return object.FromAddr(dst)
	}
}

// allocCopy bump-allocates size words from this worker's copy buffer
// in the requested space, carving a fresh chunk when the buffer is
// dry. A survivor-space request falls back to tenuring when the
// future survivor space cannot supply a chunk (overflow tenuring, as
// in the serial scavenger); old-space exhaustion is fatal, exactly as
// in the serial path.
func (w *scavWorker) allocCopy(h *Heap, size int, tenure bool) (dst uint64, inOld bool) {
	if !tenure && (w.to.fits(size) || h.carveChunk(w, &w.to, h.to, size)) {
		return w.to.take(size), false
	}
	if !w.old.fits(size) && !h.carveChunk(w, &w.old, &h.old, size) {
		panic(OOMError{NeedWords: size})
	}
	return w.old.take(size), true
}

// carveChunk retires the worker's current buffer (capping its unused
// tail with a filler) and carves a fresh chunk of at least size words
// from the shared space. The host mutex serializes only the carve;
// the virtual cost is the ScavengeChunk charge.
func (h *Heap) carveChunk(w *scavWorker, buf *bump, sp *space, size int) bool {
	h.gcMu.Lock()
	free := int(sp.limit - sp.next)
	if free < size {
		h.gcMu.Unlock()
		return false
	}
	n := parScavChunkWords
	if n < size {
		n = size
	}
	if n > free {
		n = free
	}
	h.fillGap(buf.next, buf.limit)
	*buf = bump{next: sp.next, limit: sp.next + uint64(n)}
	sp.next = buf.limit
	h.gcMu.Unlock()
	w.chunks++
	w.cost += h.m.Costs().ScavengeChunk
	return true
}

// finishParScav retires every worker's buffers, merges worker results
// into the heap statistics and the rebuilt remembered set (worker
// order, deterministic in the simulated schedule), emits the
// per-worker trace slices, and charges virtual time. Deterministic
// mode: every worker's processor is charged its own cost, and the
// scavenging processor stalls to the slowest worker plus the
// termination barrier — scavenge wall time = ScavengeBase +
// max(worker costs) + ScavengeTerm. Host mode: each worker charged
// itself inside RunStopped; the owner pays the fixed costs here.
func (h *Heap) finishParScav(s *parScav, p *firefly.Proc, start firefly.Time) {
	for _, w := range s.ws {
		h.fillGap(w.to.next, w.to.limit)
		h.fillGap(w.old.next, w.old.limit)
		h.stats.CopiedObjects += w.copiedObjects
		h.stats.CopiedWords += w.copiedWords
		h.stats.TenuredObjects += w.tenuredObjects
		h.stats.TenuredWords += w.tenuredWords
		h.stats.ScavengeSteals += w.steals
		h.remembered = append(h.remembered, w.remembered...)
	}
	if len(h.remembered) > h.stats.RememberedPeak {
		h.stats.RememberedPeak = len(h.remembered)
	}
	h.stats.ParScavenges++

	c := h.m.Costs()
	longPole, maxCost := 0, firefly.Time(0)
	var sumCost firefly.Time
	var sumSteals uint64
	for i, w := range s.ws {
		if w.cost > maxCost {
			longPole, maxCost = i, w.cost
		}
		sumCost += w.cost
		sumSteals += w.steals
	}
	if h.par {
		p.Advance(c.ScavengeBase + c.ScavengeTerm)
	} else {
		end := start + c.ScavengeBase + maxCost + c.ScavengeTerm
		for i, w := range s.ws {
			if q := h.m.Proc(i); q != p {
				q.Advance(w.cost)
			}
		}
		p.Advance(c.ScavengeBase + s.ws[p.ID()].cost + c.ScavengeTerm)
		p.StallUntil(end)
		h.m.StallOthers(p, end)
	}
	// Parallel phase split: rendezvous is the base charge, the copy
	// phase lasts until the slowest worker (the long pole) finishes,
	// and the termination barrier is the fixed join cost.
	h.lat.Record(trace.ScavRendezvous, int64(c.ScavengeBase))
	h.lat.Record(trace.ScavCopy, int64(maxCost))
	h.lat.Record(trace.ScavTerm, int64(c.ScavengeTerm))
	h.lat.AddCriticalPath(trace.GCCriticalPath{
		Scavenge:      h.stats.ParScavenges,
		LongPole:      longPole,
		LongPoleTicks: int64(maxCost),
		SumTicks:      int64(sumCost),
		Workers:       len(s.ws),
		Steals:        sumSteals,
	})

	for i, w := range s.ws {
		h.rec.Emit(trace.KScavWorkerBegin, i, h.gcAt, int64(w.steals), 0, "")
		h.rec.Emit(trace.KScavWorkerEnd, i, h.gcAt+int64(w.cost),
			int64(w.copiedObjects), int64(w.copiedWords), "")
	}
	h.san.ResetGCClaims()
}
