// Package trace is the virtual-time flight recorder: a fixed-size ring
// buffer of events emitted from the hot paths of the simulator (machine
// scheduling, locks, GC, interpreter, devices), plus the host-side
// consumers built on it — a Perfetto/Chrome trace-event exporter, a
// selector-level virtual-time profiler, the latency histograms, and
// the allocation-site profiler. The unified metrics registry lives in
// package core, over the layers' own Stats types.
//
// The package sits below every other layer (it imports nothing from the
// repository) so that firefly, heap, interp, and display can all emit
// into one recorder. Times are raw virtual ticks (int64; one tick is
// one virtual microsecond).
//
// Everything here is observability only: recording an event never
// charges virtual time, never touches the simulated heap, and never
// registers GC roots, so a traced run is bit-identical — in every
// virtual clock and every counter — to an untraced one. The golden
// determinism test asserts this invariant.
package trace

import (
	"fmt"
	"sort"
)

// Kind classifies one flight-recorder event.
type Kind uint8

const (
	// Machine-level events (emitted by internal/firefly).
	KQuantumStart Kind = iota // proc begins a scheduling quantum
	KQuantumEnd               // proc yields; Arg1 unused
	KHandoff                  // quantum goes to another proc; Arg1 = target proc
	KLockAcquire              // lock taken; Str = lock name, Arg2 = 1 if exclusive
	KLockContend              // contended acquire; Arg1 = spin ticks (0: TryAcquire failure)
	KLockRelease              // lock released; Str = lock name, Arg2 = 1 if exclusive
	KStall                    // stop-the-world stall; Arg1 = stall ticks

	// Heap events (emitted by internal/heap).
	KScavengeBegin // scavenge starts on this proc
	KScavengeEnd   // Arg1 = copied objects, Arg2 = copied words
	KEdenFull      // eden exhausted; Arg1 = words requested
	KTenure        // object promoted to old space; Arg1 = words
	KFullGCBegin   // full mark-compact collection starts
	KFullGCEnd     // Arg1 = reclaimed old-space words

	// Interpreter events (emitted by internal/interp).
	KSend          // message send; Str = selector, Arg1 = nargs
	KCacheHit      // method-cache hit
	KCacheMiss     // method-cache miss; Str = selector
	KICHit         // inline-cache hit
	KICMiss        // inline-cache miss; Str = selector
	KProcessSwitch // interpreter switched Smalltalk Processes; Arg1 = process oop
	KPrimitive     // primitive invoked; Arg1 = primitive index
	KCtxAlloc      // context allocated from the heap
	KCtxRecycle    // context returned to a free list

	// Device events (emitted by internal/display).
	KDisplayOp // command posted to the display output queue
	KInputOp   // input event transferred from the sensor

	// Parallel-scavenge worker events (emitted by internal/heap when
	// Config.ParScavenge is on and there is more than one processor).
	// Proc is the worker's processor.
	KScavWorkerBegin // worker joins the cooperative copy; Arg1 = steals
	KScavWorkerEnd   // worker done; Arg1 = copied objects, Arg2 = copied words
	KScavSteal       // worker stole a grey object; Arg1 = victim worker

	// Template-tier events (emitted by internal/interp when Config.JIT
	// is on). Proc is the compiling/deopting processor.
	KJITCompile // method template-compiled; Str = selector, Arg1 = instrs
	KJITDeopt   // compiled body bailed out; Arg1 = reason, Str = reason name

	// Counter samples (emitted by internal/heap at GC boundaries;
	// rendered as Perfetto counter tracks).
	KHeapOccupancy // Arg1 = eden words in use, Arg2 = old words in use
	KGCPause       // Arg1 = pause ticks, Arg2 = 0 scavenge / 1 full gc

	// Image-server events (emitted by internal/serve). Proc is the
	// executor processor; Arg1 is the tenant, so the Perfetto export can
	// lay requests out on one track per tenant.
	KServeStart  // request picked up; Str = request kind, Arg1 = tenant, Arg2 = queue wait ticks
	KServeDone   // response produced; Arg1 = tenant, Arg2 = request latency ticks
	KServeReject // request shed at admission; Arg1 = tenant, Arg2 = 1 tenant-share / 0 queue-full

	// Concurrent old-space marking events (emitted by internal/heap when
	// Config.ConcMark is on). Proc is the marking processor.
	KConcMarkBegin // snapshot window done; Arg1 = objects shaded from roots/young
	KConcMarkSlice // one bounded mark slice drained; Arg1 = objects scanned, Arg2 = slice ticks
	KConcMarkFinal // finalize window done; Arg1 = residual objects drained, Arg2 = pause ticks
	KConcMarkSweep // lazy sweep done; Arg1 = objects reclaimed, Arg2 = words reclaimed

	numKinds
)

var kindNames = [numKinds]string{
	"quantum-start", "quantum-end", "handoff",
	"lock-acquire", "lock-contend", "lock-release", "stall",
	"scavenge-begin", "scavenge-end", "eden-full", "tenure",
	"fullgc-begin", "fullgc-end",
	"send", "cache-hit", "cache-miss", "ic-hit", "ic-miss",
	"process-switch", "primitive", "ctx-alloc", "ctx-recycle",
	"display-op", "input-op",
	"scav-worker-begin", "scav-worker-end", "scav-steal",
	"jit-compile", "jit-deopt",
	"heap-occupancy", "gc-pause",
	"serve-start", "serve-done", "serve-reject",
	"concmark-begin", "concmark-slice", "concmark-final", "concmark-sweep",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one flight-recorder entry. At is virtual ticks; Proc is the
// virtual processor the event belongs to (its track). Str carries an
// interned name (selector, lock) — recording it copies only the string
// header, never the bytes.
type Event struct {
	At   int64
	Arg1 int64
	Arg2 int64
	Str  string
	Proc int32
	Kind Kind
}

// Recorder is the flight-recorder ring buffer. It is not synchronized:
// the simulator runs one processor coroutine at a time, so there is a
// single writer, and readers (export, tests) run between Runs.
//
// In parallel host mode that guarantee disappears, so a recorder can be
// sharded (NewShardedRecorder): each virtual processor then owns a
// private ring and emissions stay contention-free without a lock. The
// shards are merged, ordered by virtual time, when events are read.
type Recorder struct {
	buf    []Event
	mask   uint64
	n      uint64 // events ever emitted
	shards []*Recorder
}

// DefaultRingSize is the event capacity used by the -trace CLI flags:
// large enough to hold the tail of a macro benchmark, small enough that
// the exported JSON stays loadable in ui.perfetto.dev.
const DefaultRingSize = 1 << 17

// NewRecorder creates a recorder holding the most recent events.
// capacity is rounded up to a power of two, minimum 1024.
func NewRecorder(capacity int) *Recorder {
	n := 1024
	for n < capacity {
		n <<= 1
	}
	return &Recorder{buf: make([]Event, n), mask: uint64(n - 1)}
}

// NewShardedRecorder creates a recorder with one private ring per
// virtual processor, for parallel host mode: each processor emits only
// into its own shard, so recording needs no synchronization even with
// every processor running on its own goroutine. capacity is the total
// event budget, divided across the shards (each shard still gets the
// NewRecorder minimum).
func NewShardedRecorder(capacity, procs int) *Recorder {
	if procs < 1 {
		procs = 1
	}
	r := &Recorder{shards: make([]*Recorder, procs)}
	for i := range r.shards {
		r.shards[i] = NewRecorder(capacity / procs)
	}
	return r
}

// Sharded reports whether the recorder keeps per-processor rings.
func (r *Recorder) Sharded() bool { return r.shards != nil }

// Emit records one event, overwriting the oldest when the ring is full.
// It never allocates. On a sharded recorder the event goes to the
// emitting processor's private ring. A nil recorder is tracing switched
// off: the wrapper inlines, so a detached site costs one pointer test.
func (r *Recorder) Emit(k Kind, proc int, at, arg1, arg2 int64, str string) {
	if r != nil {
		r.emit(k, proc, at, arg1, arg2, str)
	}
}

func (r *Recorder) emit(k Kind, proc int, at, arg1, arg2 int64, str string) {
	if r.shards != nil {
		s := r.shards[0]
		if proc >= 0 && proc < len(r.shards) {
			s = r.shards[proc]
		}
		s.emit(k, proc, at, arg1, arg2, str)
		return
	}
	e := &r.buf[r.n&r.mask]
	e.At, e.Arg1, e.Arg2, e.Str, e.Proc, e.Kind = at, arg1, arg2, str, int32(proc), k
	r.n++
}

// Len returns how many events are currently held.
func (r *Recorder) Len() int {
	if r.shards != nil {
		total := 0
		for _, s := range r.shards {
			total += s.Len()
		}
		return total
	}
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Total returns how many events were ever emitted.
func (r *Recorder) Total() uint64 {
	if r.shards != nil {
		var total uint64
		for _, s := range r.shards {
			total += s.n
		}
		return total
	}
	return r.n
}

// Dropped returns how many events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	if r.shards != nil {
		var total uint64
		for _, s := range r.shards {
			total += s.Dropped()
		}
		return total
	}
	if r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Events returns the recorded events, oldest first. A sharded
// recorder's per-processor rings are merged into one stream ordered by
// (virtual time, processor), preserving each shard's emission order —
// the export is deterministic for a given set of shard contents even
// though the shards filled concurrently. Readers run only while the
// machine is stopped.
func (r *Recorder) Events() []Event {
	if r.shards != nil {
		type seqEvent struct {
			e   Event
			seq int
		}
		var all []seqEvent
		for _, s := range r.shards {
			for i, e := range s.Events() {
				all = append(all, seqEvent{e, i})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.e.At != b.e.At {
				return a.e.At < b.e.At
			}
			if a.e.Proc != b.e.Proc {
				return a.e.Proc < b.e.Proc
			}
			return a.seq < b.seq
		})
		out := make([]Event, len(all))
		for i, se := range all {
			out[i] = se.e
		}
		return out
	}
	out := make([]Event, 0, r.Len())
	start := uint64(0)
	if r.n > uint64(len(r.buf)) {
		start = r.n - uint64(len(r.buf))
	}
	for i := start; i < r.n; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}

// Reset discards every recorded event (the rings keep their capacity).
func (r *Recorder) Reset() {
	for _, s := range r.shards {
		s.n = 0
	}
	r.n = 0
}
