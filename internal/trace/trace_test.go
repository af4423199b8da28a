package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(2000) // rounds up to 2048
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatalf("fresh recorder not empty: len=%d total=%d dropped=%d",
			r.Len(), r.Total(), r.Dropped())
	}
	for i := 0; i < 100; i++ {
		r.Emit(KSend, i%4, int64(i), int64(i), 0, "sel")
	}
	if r.Len() != 100 || r.Total() != 100 || r.Dropped() != 0 {
		t.Fatalf("after 100 emits: len=%d total=%d dropped=%d",
			r.Len(), r.Total(), r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 100 {
		t.Fatalf("Events returned %d", len(ev))
	}
	for i, e := range ev {
		if e.At != int64(i) || e.Kind != KSend || e.Str != "sel" {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Reset did not clear")
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(100) // rounds up to the 1024 minimum
	n := 1024
	total := 3*n + 17
	for i := 0; i < total; i++ {
		r.Emit(KQuantumStart, 0, int64(i), 0, 0, "")
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	if got, want := r.Dropped(), uint64(total-n); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	ev := r.Events()
	if len(ev) != n {
		t.Fatalf("Events len = %d, want %d", len(ev), n)
	}
	// Oldest first: the surviving window is [total-n, total).
	for i, e := range ev {
		if want := int64(total - n + i); e.At != want {
			t.Fatalf("event %d At = %d, want %d", i, e.At, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatalf("out-of-range kind string: %s", Kind(200).String())
	}
}

// decodePerfetto unmarshals exporter output for inspection.
func decodePerfetto(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	return doc.TraceEvents
}

// pfSlice is one exported "X" event, for the pairing tests.
type pfSlice struct {
	pid, tid int
	ts, dur  int64
	args     map[string]any
}

// perfettoSlices exports events on numProcs processors and groups the
// output's slices by name, in output order; it also returns every
// output event.
func perfettoSlices(t *testing.T, events []Event, numProcs int) (map[string][]pfSlice, []map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, events, numProcs); err != nil {
		t.Fatal(err)
	}
	out := decodePerfetto(t, &buf)
	slices := map[string][]pfSlice{}
	for _, e := range out {
		if e["ph"] != "X" {
			continue
		}
		args, _ := e["args"].(map[string]any)
		key := e["name"].(string)
		slices[key] = append(slices[key], pfSlice{
			pid:  int(e["pid"].(float64)),
			tid:  int(e["tid"].(float64)),
			ts:   int64(e["ts"].(float64)),
			dur:  int64(e["dur"].(float64)),
			args: args,
		})
	}
	return slices, out
}

// wantSlice checks one slice's track, extent and (when want is not nil)
// args.
func wantSlice(t *testing.T, what string, got pfSlice, pid, tid int, ts, dur int64, args map[string]any) {
	t.Helper()
	if got.pid != pid || got.tid != tid || got.ts != ts || got.dur != dur {
		t.Errorf("%s = pid %d tid %d [%d +%d], want pid %d tid %d [%d +%d]",
			what, got.pid, got.tid, got.ts, got.dur, pid, tid, ts, dur)
	}
	for k, v := range args {
		if got.args[k] != v {
			t.Errorf("%s arg %s = %v, want %v", what, k, got.args[k], v)
		}
	}
	if args == nil && got.args != nil {
		t.Errorf("%s has args %v, want none", what, got.args)
	}
}

// threadNames maps "pid/tid" to each declared thread's name.
func threadNames(out []map[string]any) map[string]string {
	names := map[string]string{}
	for _, e := range out {
		if e["name"] == "thread_name" {
			key := itoa(int(e["pid"].(float64))) + "/" + itoa(int(e["tid"].(float64)))
			names[key] = e["args"].(map[string]any)["name"].(string)
		}
	}
	return names
}

func TestPerfettoSyntheticPairing(t *testing.T) {
	events := []Event{
		{Kind: KQuantumStart, Proc: 0, At: 10},
		{Kind: KLockAcquire, Proc: 0, At: 12, Str: "alloc", Arg2: 1},
		{Kind: KLockRelease, Proc: 0, At: 15, Str: "alloc", Arg2: 1},
		{Kind: KQuantumEnd, Proc: 0, At: 20},
		{Kind: KQuantumStart, Proc: 1, At: 11},
		{Kind: KLockContend, Proc: 1, At: 13, Str: "alloc", Arg1: 4},
		{Kind: KLockAcquire, Proc: 1, At: 17, Str: "alloc", Arg2: 1},
		// Release lost to ring truncation; quantum 1 left open.
		{Kind: KServeStart, Proc: 0, At: 21, Arg1: 3, Str: "eval"},
		{Kind: KServeDone, Proc: 1, At: 25, Arg1: 3, Arg2: 9},
		{Kind: KJITCompile, Proc: 1, At: 26, Str: "foo", Arg1: 12},
		// A full collection containing its scavenge, with one parallel
		// scavenge worker's copy inside the scavenge.
		{Kind: KFullGCBegin, Proc: 0, At: 28},
		{Kind: KScavengeBegin, Proc: 0, At: 30},
		{Kind: KScavWorkerBegin, Proc: 2, At: 31},
		{Kind: KScavWorkerEnd, Proc: 2, At: 40, Arg1: 3, Arg2: 30},
		{Kind: KScavengeEnd, Proc: 0, At: 42, Arg1: 7, Arg2: 70},
		{Kind: KFullGCEnd, Proc: 0, At: 42, Arg1: 100},
	}
	slices, out := perfettoSlices(t, events, 2)

	// Proc 0's quantum closed normally; proc 1's closed at maxTs (42).
	q := slices["quantum"]
	if len(q) != 2 {
		t.Fatalf("quantum slices = %d, want 2: %+v", len(q), q)
	}
	wantSlice(t, "quantum[0]", q[0], pidProcs, 0, 10, 10, nil)
	wantSlice(t, "quantum[1] (trailing-open)", q[1], pidProcs, 1, 11, 42-11, nil)
	// Lock holds: proc 0's [12,15]; proc 1's acquire closed at maxTs.
	held := slices["held"]
	if len(held) != 2 {
		t.Fatalf("held slices = %d, want 2: %+v", len(held), held)
	}
	wantSlice(t, "held[0]", held[0], pidLocks, 0, 12, 3, map[string]any{"proc": 0.0})
	wantSlice(t, "held[1]", held[1], pidLocks, 0, 17, 42-17, nil)
	// Spin slice from the contend event.
	spin := slices["spin alloc"]
	if len(spin) != 1 {
		t.Fatalf("spin = %+v", spin)
	}
	wantSlice(t, "spin", spin[0], pidProcs, 1, 13, 4, nil)
	// Scavenge shows on both the proc track and the gc track, and the
	// full collection contains it.
	scav := slices["scavenge"]
	if len(scav) != 2 {
		t.Fatalf("scavenge slices = %d, want 2: %+v", len(scav), scav)
	}
	wantSlice(t, "scavenge (proc)", scav[0], pidProcs, 0, 30, 12, nil)
	wantSlice(t, "scavenge (gc)", scav[1], pidGC, 0, 30, 12,
		map[string]any{"objects": 7.0, "words": 70.0})
	full := slices["full-gc"]
	if len(full) != 1 {
		t.Fatalf("full-gc slices = %d, want 1: %+v", len(full), full)
	}
	wantSlice(t, "full-gc", full[0], pidGC, 0, 28, 14, map[string]any{"reclaimed_words": 100.0})
	// Worker 2's copy sits on the gc process at tid 1+2.
	cp := slices["copy"]
	if len(cp) != 1 {
		t.Fatalf("copy slices = %d, want 1: %+v", len(cp), cp)
	}
	wantSlice(t, "copy", cp[0], pidGC, 3, 31, 9, map[string]any{"objects": 3.0, "words": 30.0})
	// Tenant 3's request is named by its kind and carries the done's
	// executor and latency.
	req := slices["eval"]
	if len(req) != 1 {
		t.Fatalf("request slices = %d, want 1: %+v", len(req), req)
	}
	wantSlice(t, "request", req[0], pidServe, 3, 21, 4,
		map[string]any{"executor": 1.0, "latency_ticks": 9.0})

	// The jit instant, and the lazily declared tracks' names.
	var compiles int
	for _, e := range out {
		if e["ph"] == "i" && e["name"] == "compile foo" {
			compiles++
			if e["pid"] != float64(pidJIT) || e["tid"] != 1.0 || e["ts"] != 26.0 ||
				e["args"].(map[string]any)["instrs"] != 12.0 {
				t.Errorf("jit instant = %v", e)
			}
		}
	}
	if compiles != 1 {
		t.Errorf("jit compile instants = %d, want 1", compiles)
	}
	names := threadNames(out)
	for track, want := range map[string]string{
		"1/0": "cpu 0", "1/1": "cpu 1", "2/0": "alloc", "3/0": "collector",
		"3/3": "scavenge worker 2", "4/1": "cpu 1", "5/3": "tenant 3",
	} {
		if names[track] != want {
			t.Errorf("thread %s = %q, want %q", track, names[track], want)
		}
	}
	if len(names) != 7 {
		t.Errorf("declared threads = %v, want 7", names)
	}
}

func TestPerfettoUnmatchedEndDropped(t *testing.T) {
	events := []Event{
		// Ring truncation left a bare quantum-end, lock-release,
		// full-collection end, worker end and tenant done.
		{Kind: KQuantumEnd, Proc: 0, At: 5},
		{Kind: KLockRelease, Proc: 0, At: 6, Str: "sched", Arg2: 1},
		{Kind: KFullGCEnd, Proc: 0, At: 6, Arg1: 1},
		{Kind: KScavWorkerEnd, Proc: 1, At: 6},
		{Kind: KServeDone, Proc: 0, At: 7, Arg1: 2},
		{Kind: KQuantumStart, Proc: 0, At: 8},
		{Kind: KQuantumEnd, Proc: 0, At: 9},
		// A lock re-acquired after its release fell off the ring: the
		// lock track's holds stay disjoint.
		{Kind: KLockAcquire, Proc: 0, At: 10, Str: "sched", Arg2: 1},
		{Kind: KLockAcquire, Proc: 0, At: 12, Str: "sched", Arg2: 1},
		{Kind: KLockRelease, Proc: 0, At: 14, Str: "sched", Arg2: 1},
		// A tenant's pickup after its previous done was lost.
		{Kind: KServeStart, Proc: 0, At: 20, Arg1: 2, Str: "eval"},
		{Kind: KServeStart, Proc: 0, At: 22, Arg1: 2, Str: "compile"},
		{Kind: KServeDone, Proc: 0, At: 25, Arg1: 2, Arg2: 3},
	}
	slices, out := perfettoSlices(t, events, 1)
	q := slices["quantum"]
	if len(q) != 1 {
		t.Fatalf("quantum slices = %d, want 1: %+v", len(q), q)
	}
	wantSlice(t, "quantum", q[0], pidProcs, 0, 8, 1, nil)
	for _, name := range []string{"full-gc", "copy", "request"} {
		if len(slices[name]) != 0 {
			t.Errorf("an orphan end produced a %s slice: %+v", name, slices[name])
		}
	}
	held := slices["held"]
	if len(held) != 2 {
		t.Fatalf("held slices = %d, want 2 (the orphan release makes none): %+v", len(held), held)
	}
	wantSlice(t, "held[0] (release lost)", held[0], pidLocks, 0, 10, 2, nil)
	wantSlice(t, "held[1]", held[1], pidLocks, 0, 12, 2, map[string]any{"proc": 0.0})
	if e, c := slices["eval"], slices["compile"]; len(e) != 1 || len(c) != 1 {
		t.Fatalf("tenant slices: eval %+v compile %+v, want one each", e, c)
	} else {
		wantSlice(t, "eval (done lost)", e[0], pidServe, 2, 20, 2, nil)
		wantSlice(t, "compile", c[0], pidServe, 2, 22, 3,
			map[string]any{"executor": 0.0, "latency_ticks": 3.0})
	}
	// The processor track nests its holds: the inner acquire's hold
	// ends at the release and the outer one at the last timestamp.
	hold := slices["hold sched"]
	if len(hold) != 2 {
		t.Fatalf("processor hold slices = %d, want 2: %+v", len(hold), hold)
	}
	wantSlice(t, "inner hold", hold[0], pidProcs, 0, 12, 2, nil)
	wantSlice(t, "outer hold", hold[1], pidProcs, 0, 10, 15, nil)
	// Even an orphan end declares its track.
	names := threadNames(out)
	if names["3/2"] != "scavenge worker 1" || names["5/2"] != "tenant 2" {
		t.Errorf("declared threads = %v", names)
	}
}

func TestProfilerAttribution(t *testing.T) {
	pf := NewProfiler(1)
	pf.Prime(0, 100)

	// Enter A (charges nothing yet), run 50 ticks in A, call A->B.
	pf.Sync(0, []string{"A"}, 100)
	pf.Sync(0, []string{"A", "B"}, 150)
	// Run 30 ticks in B, return to A.
	pf.Sync(0, []string{"A"}, 180)
	// Run 20 ticks in A, go idle.
	pf.Sync(0, nil, 200)
	// 10 idle-loop busy ticks, then a fresh stack C->A (recursion-free
	// process switch shape).
	pf.Sync(0, []string{"C", "A"}, 210)
	pf.Sync(0, nil, 260) // 50 ticks in A (inner), flush

	if got := pf.flat["A"]; got != 120 {
		t.Fatalf("flat[A] = %d, want 120", got)
	}
	if got := pf.flat["B"]; got != 30 {
		t.Fatalf("flat[B] = %d, want 30", got)
	}
	if got := pf.flat[BucketIdle]; got != 10 {
		t.Fatalf("flat[(idle)] = %d, want 10", got)
	}
	// Cum A: on stack [100,200] and [210,260] -> 150. Cum B: [150,180].
	if got := pf.cum["A"]; got != 150 {
		t.Fatalf("cum[A] = %d, want 150", got)
	}
	if got := pf.cum["B"]; got != 30 {
		t.Fatalf("cum[B] = %d, want 30", got)
	}
	if got := pf.cum["C"]; got != 50 {
		t.Fatalf("cum[C] = %d, want 50", got)
	}
	if total := pf.TotalBusy(); total != 160 {
		t.Fatalf("TotalBusy = %d, want 160", total)
	}
	// Coverage: 150 named of 160 charged.
	if cov := pf.Coverage(); cov < 0.93 || cov > 0.94 {
		t.Fatalf("Coverage = %f, want 150/160", cov)
	}
	entries := pf.Entries()
	if entries[0].Name != "A" {
		t.Fatalf("top entry = %+v, want A", entries[0])
	}
	rep := pf.Report(10)
	if !bytes.Contains([]byte(rep), []byte("A")) || !bytes.Contains([]byte(rep), []byte("coverage")) {
		t.Fatalf("report missing content:\n%s", rep)
	}
}

func TestProfilerRecursion(t *testing.T) {
	pf := NewProfiler(1)
	// A -> A -> A recursion: cum must count the outermost interval once.
	pf.Sync(0, []string{"A"}, 0)
	pf.Sync(0, []string{"A", "A"}, 10)
	pf.Sync(0, []string{"A", "A", "A"}, 20)
	pf.Sync(0, []string{"A"}, 30)
	pf.Sync(0, nil, 40)
	if got := pf.flat["A"]; got != 40 {
		t.Fatalf("flat[A] = %d, want 40", got)
	}
	if got := pf.cum["A"]; got != 40 {
		t.Fatalf("cum[A] = %d, want 40 (outermost interval once)", got)
	}
}

func TestShardedRecorder(t *testing.T) {
	r := NewShardedRecorder(8192, 4)
	if !r.Sharded() {
		t.Fatal("NewShardedRecorder not sharded")
	}
	// Interleave emissions across processors with overlapping times;
	// the merged stream must come back ordered by (At, Proc) with each
	// shard's own order preserved.
	for i := 0; i < 50; i++ {
		for proc := 3; proc >= 0; proc-- {
			r.Emit(KSend, proc, int64(i), int64(proc), 0, "sel")
		}
	}
	if r.Total() != 200 || r.Len() != 200 || r.Dropped() != 0 {
		t.Fatalf("total=%d len=%d dropped=%d", r.Total(), r.Len(), r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 200 {
		t.Fatalf("Events returned %d", len(ev))
	}
	for i, e := range ev {
		wantAt, wantProc := int64(i/4), int32(i%4)
		if e.At != wantAt || e.Proc != wantProc {
			t.Fatalf("event %d = at %d proc %d, want at %d proc %d",
				i, e.At, e.Proc, wantAt, wantProc)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("Reset did not clear the shards")
	}
}

func TestShardedRecorderConcurrent(t *testing.T) {
	const procs, per = 4, 5000
	r := NewShardedRecorder(procs*8192, procs)
	done := make(chan struct{})
	for p := 0; p < procs; p++ {
		go func(p int) {
			for i := 0; i < per; i++ {
				r.Emit(KCacheHit, p, int64(i), 0, 0, "")
			}
			done <- struct{}{}
		}(p)
	}
	for p := 0; p < procs; p++ {
		<-done
	}
	if r.Total() != procs*per {
		t.Fatalf("total = %d, want %d", r.Total(), procs*per)
	}
	ev := r.Events()
	last := make(map[int32]int64)
	for _, e := range ev {
		if prev, ok := last[e.Proc]; ok && e.At < prev {
			t.Fatalf("proc %d events out of order: %d after %d", e.Proc, e.At, prev)
		}
		last[e.Proc] = e.At
	}
}

// TestHooksNilSafe holds the hook rule where it is decided: a nil
// observer is that observer switched off, and every method the
// instrumented layers call on it returns without panicking and without
// allocating.
func TestHooksNilSafe(t *testing.T) {
	var (
		r  *Recorder
		h  *Histogram
		lh *LatencyHists
		ap *AllocProfiler
	)
	if n := testing.AllocsPerRun(100, func() {
		r.Emit(KSend, 0, 1, 2, 3, "sel")
		h.Record(7)
		for s := 0; s < numSeries; s++ {
			lh.Record(s, 7)
		}
		lh.LockHist("alloc").Record(7)
		lh.AddCriticalPath(GCCriticalPath{Workers: 2})
		ap.RecordAlloc(0, 4)
		ap.NoteSurvived(0, 4)
		ap.NoteTenured(0, 4)
		ap.NoteAge(1, 4)
	}); n != 0 {
		t.Errorf("hooks on nil observers allocate %v times per run, want 0", n)
	}
}
