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
// every rendezvoused processor is a worker of the scavenger in
// scavenge.go, whose one-worker instance the single scavenger is.
//
//   - Work: one grey-object work-stealing deque per worker (worklist.go).
//   - Space: per-worker copy buffers, chunks carved from the shared
//     future-survivor and old spaces under a host mutex; a retired
//     buffer's unused tail is capped with a filler object.
//   - Claiming: the first worker to CAS an object's header to the busy
//     sentinel owns the copy and publishes the forwarding pointer, then
//     the forwarded header; a loser spins until it appears.
//   - Termination: in host mode an active-worker count detects
//     quiescence; the owner then waits out RunStopped's join barrier.
//
// In deterministic mode one goroutine simulates the schedule: the
// worker with the smallest accumulated virtual cost acts next (stealing
// from the fullest deque when it runs dry), so the schedule is a pure
// function of the heap contents.

// parScavChunkWords is the copy-buffer chunk size carved from the
// shared spaces. Small enough that per-worker fragmentation (one
// filler-capped tail per worker per space) stays a fraction of a
// survivor space, large enough that carving is rare.
const parScavChunkWords = 256

// scavBusyHeader is the claim sentinel a worker CASes into an object's
// header while it copies the object: the zero word. No real header
// (sizes are >= HeaderWords) and no forwarding header (forwarded bit
// set) ever looks like it, so parForward's test for a finished copy
// reads past it.
const scavBusyHeader = object.Header(0)

// errParScavAbort unwinds helper workers after another worker failed
// (old-space OOM): spinning on a busy header would otherwise deadlock
// on a claim that will never be published.
var errParScavAbort = errors.New("heap: parallel scavenge aborted")

// scavWorker is one processor's share of a scavenge.
type scavWorker struct {
	id  int
	wl  worklist
	to  bump // copy buffer in the future survivor space
	old bump // copy buffer in old space (tenuring)
	tally
	remembered []object.OOP // old objects still referencing new space
}

// tally is what a worker charged and copied in one scavenge.
type tally struct {
	cost           firefly.Time // virtual copy + coordination cost
	steals         uint64
	copiedObjects  uint64
	copiedWords    uint64
	tenuredObjects uint64
	tenuredWords   uint64
}

// parScav is the scavenger's state, kept from one scavenge to the next
// as host scratch.
type parScav struct {
	crew   []*scavWorker // one per processor, grown on demand
	ws     []*scavWorker // this scavenge's workers: crew[:1] or crew[:NumProcs]
	shared bool          // more than one worker drains
	to     *space        // the future survivor space
	dealt  int           // root slots dealt so far

	// Host-mode termination detection and failure plumbing.
	active  atomic.Int32
	done    atomic.Bool
	aborted atomic.Bool
	//msvet:stw-safe worker panic-recovery lock: exists only for the duration of one scavenge window; the parked mutators can never observe it held
	errMu sync.Mutex
	err   any
}

// drainDet simulates the parallel drain deterministically: the worker
// with the smallest accumulated virtual cost (ties to the lowest id)
// processes one item per step, stealing from the victim with the most
// queued work when its own deque is dry. The schedule — and therefore
// every copy decision and the final heap layout — is a pure function
// of the seeded work.
func (s *parScav) drainDet(h *Heap) {
	c := h.m.Costs()
	for s.anyWork() {
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
		h.scanGrey(w, it)
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
			h.scanGrey(w, it)
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
	n := min(max(parScavChunkWords, size), free)
	h.fillGap(buf.next, buf.limit)
	*buf = bump{next: sp.next, limit: sp.next + uint64(n)}
	sp.next = buf.limit
	h.gcMu.Unlock()
	w.cost += h.m.Costs().ScavengeChunk
	return true
}
