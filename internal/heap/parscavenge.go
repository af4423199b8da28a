package heap

import (
	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/trace"
)

// The parallel generation scavenger (Config.ParScavenge): instead of
// the paper's single scavenging processor (Table 3 serializes GC),
// every processor is a worker of the scavenger in scavenge.go, whose
// one-worker instance the single scavenger is.
//
//   - Work: one grey-object work-stealing deque per worker (worklist.go).
//   - Space: per-worker copy buffers, chunks carved from the shared
//     future-survivor and old spaces; a retired buffer's unused tail is
//     capped with a filler object.
//   - Schedule: one goroutine, the processor that stopped the world,
//     simulates the drain. The worker with the smallest accumulated
//     virtual cost acts next (stealing from the fullest deque when it
//     runs dry), so the schedule, and with it every copy decision and
//     the heap layout, is a pure function of the heap contents, under
//     -parallel as on a deterministic machine.

// parScavChunkWords is the copy-buffer chunk size carved from the
// shared spaces. Small enough that per-worker fragmentation (one
// filler-capped tail per worker per space) stays a fraction of a
// survivor space, large enough that carving is rare.
const parScavChunkWords = 256

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
// from the shared space, for ScavengeChunk of virtual cost.
func (h *Heap) carveChunk(w *scavWorker, buf *bump, sp *space, size int) bool {
	free := int(sp.limit - sp.next)
	if free < size {
		return false
	}
	n := min(max(parScavChunkWords, size), free)
	h.fillGap(buf.next, buf.limit)
	*buf = bump{next: sp.next, limit: sp.next + uint64(n)}
	sp.next = buf.limit
	w.cost += h.m.Costs().ScavengeChunk
	return true
}
