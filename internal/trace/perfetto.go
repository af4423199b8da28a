package trace

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
)

// Chrome trace-event / Perfetto export. The recorder's virtual-tick
// timestamps map directly onto the format's microsecond `ts` field, so
// a trace loads in ui.perfetto.dev with the virtual-time axis intact.
//
// Track layout:
//
//	pid 1 "virtual processors" — one thread per processor: quantum
//	      slices, lock-hold and lock-spin slices, gc-stall slices,
//	      scavenge slices, and instants for sends, cache misses, etc.
//	pid 2 "locks" — one thread per registered lock: its exclusive hold
//	      intervals across all processors (read-side holds overlap in
//	      virtual time and stay on the processor tracks only).
//	pid 3 "gc" — scavenge and full-collection slices plus eden-full and
//	      tenure instants, and counter tracks for heap occupancy and the
//	      pause series (phase "C").
//	pid 4 "jit" — template-tier compile and deopt instants, one thread
//	      per compiling processor (declared lazily, so traces from runs
//	      with the tier off are unchanged).
//	pid 5 "serve" — one thread per tenant session: request slices from
//	      pickup to response (named by request kind, with executor and
//	      latency args) and admission-rejection instants (declared
//	      lazily, so non-server traces are unchanged).
//
// Every slice is paired by one rule, track by track. Processor tracks
// and the collector track nest: a begin pushes a slice, so a lock hold
// sits inside its quantum and a full collection contains its scavenge.
// Every other track (locks, scavenge workers, tenants) holds one slice
// at a time: a begin first closes whatever is open, so its slices stay
// disjoint when an end fell off the ring. An end closes the newest open
// slice of its name, and with it everything opened above that slice (a
// tenant's done has no name and matches any open slice); an end with no
// begin is dropped. The ring buffer may have overwritten the oldest
// events, so a begin with no end is closed at the last recorded
// timestamp.

const (
	pidProcs = 1
	pidLocks = 2
	pidGC    = 3
	pidJIT   = 4
	pidServe = 5
)

var processNames = [...]string{
	pidProcs: "virtual processors",
	pidLocks: "locks",
	pidGC:    "gc",
	pidJIT:   "jit",
	pidServe: "serve",
}

type pfEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type pfTrace struct {
	TraceEvents     []pfEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

type openSlice struct {
	name string
	ts   int64
}

// pfTrack is one (pid, tid) thread of the export and its open slices,
// oldest first.
type pfTrack struct {
	pid, tid int
	nest     bool
	open     []openSlice
}

type pfKey struct{ pid, tid int }

// pfBuilder accumulates trace-event JSON objects and the tracks they
// are on.
type pfBuilder struct {
	out    []pfEvent
	named  map[int]bool
	tracks map[pfKey]*pfTrack
	locks  map[string]int // lock name -> tid, in registration order
}

// process declares pid's process name, once.
func (b *pfBuilder) process(pid int) {
	if !b.named[pid] {
		b.named[pid] = true
		b.out = append(b.out, pfEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": processNames[pid]}})
	}
}

// track returns the (pid, tid) track, declaring it on first use: the
// process name once, then the thread name.
func (b *pfBuilder) track(pid, tid int, name string) *pfTrack {
	k := pfKey{pid, tid}
	if t := b.tracks[k]; t != nil {
		return t
	}
	b.process(pid)
	b.out = append(b.out, pfEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}})
	t := &pfTrack{pid: pid, tid: tid, nest: pid == pidProcs || k == pfKey{pidGC, 0}}
	b.tracks[k] = t
	return t
}

// lock returns the lock's track; tids follow the order locks are first
// seen.
func (b *pfBuilder) lock(name string) *pfTrack {
	tid, ok := b.locks[name]
	if !ok {
		tid = len(b.locks)
		b.locks[name] = tid
	}
	return b.track(pidLocks, tid, name)
}

// emit appends e on t; a nil t (a processor past numProcs) drops it.
func (b *pfBuilder) emit(t *pfTrack, e pfEvent) {
	if t != nil {
		e.Pid, e.Tid = t.pid, t.tid
		b.out = append(b.out, e)
	}
}

// slice emits a complete slice on t.
func (b *pfBuilder) slice(t *pfTrack, name string, ts, dur int64, args map[string]any) {
	dur = max(dur, 0)
	b.emit(t, pfEvent{Name: name, Ph: "X", Ts: ts, Dur: &dur, Args: args})
}

// instant emits a thread-scoped instant on t.
func (b *pfBuilder) instant(t *pfTrack, name string, ts int64, args map[string]any) {
	b.emit(t, pfEvent{Name: name, Ph: "i", Ts: ts, Scope: "t", Args: args})
}

// counter emits one sample on a Perfetto counter track (phase "C"):
// tracks with the same name form a stepped series over time.
func (b *pfBuilder) counter(pid int, name string, ts, value int64) {
	b.out = append(b.out, pfEvent{Name: name, Ph: "C", Ts: ts, Pid: pid,
		Args: map[string]any{"value": value}})
}

// begin opens a slice on t; a track that does not nest first closes
// whatever it has open.
func (b *pfBuilder) begin(t *pfTrack, name string, ts int64) {
	if t == nil {
		return
	}
	if !t.nest {
		b.close(t, 0, ts, nil)
	}
	t.open = append(t.open, openSlice{name: name, ts: ts})
}

// end closes the newest open slice of t named name (any slice when name
// is empty) with args, and everything opened above it without; an end
// with no begin is dropped.
func (b *pfBuilder) end(t *pfTrack, name string, ts int64, args map[string]any) {
	if t == nil {
		return
	}
	for i := len(t.open) - 1; i >= 0; i-- {
		if name == "" || t.open[i].name == name {
			b.close(t, i, ts, args)
			return
		}
	}
}

// close ends t's open slices from the newest down to open[i] at ts;
// args go on open[i].
func (b *pfBuilder) close(t *pfTrack, i int, ts int64, args map[string]any) {
	for j := len(t.open) - 1; j >= i; j-- {
		s, a := t.open[j], map[string]any(nil)
		if j == i {
			a = args
		}
		b.slice(t, s.name, s.ts, ts-s.ts, a)
	}
	t.open = t.open[:i]
}

// WritePerfetto exports events (oldest first, as returned by
// Recorder.Events) as Chrome trace-event JSON loadable in
// ui.perfetto.dev. numProcs fixes the processor-track count so empty
// processors still get a named track.
func WritePerfetto(w io.Writer, events []Event, numProcs int) error {
	b := &pfBuilder{named: map[int]bool{}, tracks: map[pfKey]*pfTrack{}, locks: map[string]int{}}
	b.process(pidProcs)
	b.process(pidLocks)
	b.process(pidGC)
	for i := 0; i < numProcs; i++ {
		b.track(pidProcs, i, "cpu "+itoa(i))
	}
	// The collector's scavenge and full-gc slices nest: a full gc
	// contains its eden-emptying scavenge.
	gc := b.track(pidGC, 0, "collector")
	// Parallel-scavenge workers sit under the gc process at tid
	// 1+worker; they, the tenants and the template tier's processors are
	// declared on first use, so traces without them are unchanged.
	worker := func(w int32) *pfTrack {
		return b.track(pidGC, 1+int(w), "scavenge worker "+itoa(int(w)))
	}
	tenant := func(t int64) *pfTrack { return b.track(pidServe, int(t), "tenant "+itoa(int(t))) }
	jit := func(p int32) *pfTrack { return b.track(pidJIT, int(p), "cpu "+itoa(int(p))) }

	var maxTs int64
	for i := range events {
		e := &events[i]
		maxTs = max(maxTs, e.At)
		pt := b.tracks[pfKey{pidProcs, int(e.Proc)}] // nil past numProcs
		switch e.Kind {
		case KQuantumStart:
			b.begin(pt, "quantum", e.At)
		case KQuantumEnd:
			b.end(pt, "quantum", e.At, nil)
		case KHandoff:
			b.instant(pt, "handoff", e.At, map[string]any{"to": e.Arg1})
		case KLockAcquire:
			b.begin(pt, "hold "+e.Str, e.At)
			// Exclusive holds also go on the lock's own track, in ring
			// order (which is virtual-time order per lock: an acquire can
			// only follow the release that freed the lock).
			if e.Arg2 == 1 {
				b.begin(b.lock(e.Str), "held", e.At)
			}
		case KLockRelease:
			b.end(pt, "hold "+e.Str, e.At, nil)
			if e.Arg2 == 1 {
				b.end(b.lock(e.Str), "held", e.At, map[string]any{"proc": e.Proc})
			}
		case KLockContend:
			if e.Arg1 > 0 {
				b.slice(pt, "spin "+e.Str, e.At, e.Arg1, nil)
			} else {
				b.instant(pt, "try-fail "+e.Str, e.At, nil)
			}
		case KStall:
			b.slice(pt, "gc-stall", e.At, e.Arg1, nil)
		case KScavengeBegin:
			b.begin(pt, "scavenge", e.At)
			b.begin(gc, "scavenge", e.At)
		case KScavengeEnd:
			b.end(pt, "scavenge", e.At, nil)
			b.end(gc, "scavenge", e.At, map[string]any{"objects": e.Arg1, "words": e.Arg2})
		case KFullGCBegin:
			b.begin(gc, "full-gc", e.At)
		case KFullGCEnd:
			b.end(gc, "full-gc", e.At, map[string]any{"reclaimed_words": e.Arg1})
		case KScavWorkerBegin:
			b.begin(worker(e.Proc), "copy", e.At)
		case KScavWorkerEnd:
			b.end(worker(e.Proc), "copy", e.At, map[string]any{"objects": e.Arg1, "words": e.Arg2})
		case KScavSteal:
			b.instant(worker(e.Proc), "steal", e.At, map[string]any{"victim": e.Arg1})
		case KEdenFull:
			b.instant(gc, "eden-full", e.At, map[string]any{"need_words": e.Arg1})
		case KTenure:
			b.instant(gc, "tenure", e.At, map[string]any{"words": e.Arg1})
		case KSend:
			b.instant(pt, cmp.Or(e.Str, "send"), e.At, nil)
		case KServeStart:
			// A request runs from pickup to the tenant's next done; one
			// tenant runs one request at a time.
			b.begin(tenant(e.Arg1), cmp.Or(e.Str, "request"), e.At)
		case KServeDone:
			b.end(tenant(e.Arg1), "", e.At, map[string]any{"executor": e.Proc, "latency_ticks": e.Arg2})
		case KServeReject:
			why := "queue-full"
			if e.Arg2 == 1 {
				why = "tenant-share"
			}
			b.instant(tenant(e.Arg1), "rejected: "+why, e.At, map[string]any{"executor": e.Proc})
		case KJITCompile:
			b.instant(jit(e.Proc), "compile "+e.Str, e.At, map[string]any{"instrs": e.Arg1})
		case KJITDeopt:
			b.instant(jit(e.Proc), "deopt: "+e.Str, e.At, nil)
		case KHeapOccupancy:
			b.counter(pidGC, "eden words", e.At, e.Arg1)
			b.counter(pidGC, "old words", e.At, e.Arg2)
		case KGCPause:
			if e.Arg2 == 1 {
				b.counter(pidGC, "fullgc pause ticks", e.At, e.Arg1)
			} else {
				b.counter(pidGC, "scavenge pause ticks", e.At, e.Arg1)
			}
		default:
			var args map[string]any
			if e.Str != "" {
				args = map[string]any{"str": e.Str}
			}
			b.instant(pt, e.Kind.String(), e.At, args)
		}
	}

	// Close trailing opens track by track, in (pid, tid) order.
	keys := make([]pfKey, 0, len(b.tracks))
	for k := range b.tracks {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y pfKey) int { return cmp.Or(cmp.Compare(x.pid, y.pid), cmp.Compare(x.tid, y.tid)) })
	for _, k := range keys {
		b.close(b.tracks[k], 0, maxTs, nil)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(pfTrace{TraceEvents: b.out, DisplayTimeUnit: "ms"})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
