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
		{Kind: KScavengeBegin, Proc: 0, At: 30},
		{Kind: KScavengeEnd, Proc: 0, At: 42, Arg1: 7, Arg2: 70},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, events, 2); err != nil {
		t.Fatal(err)
	}
	out := decodePerfetto(t, &buf)

	type slice struct{ ts, dur int64 }
	slices := map[string][]slice{} // name@pid/tid
	for _, e := range out {
		if e["ph"] != "X" {
			continue
		}
		key := e["name"].(string)
		slices[key] = append(slices[key], slice{
			ts:  int64(e["ts"].(float64)),
			dur: int64(e["dur"].(float64)),
		})
	}

	// Proc 0's quantum closed normally; proc 1's closed at maxTs (42).
	q := slices["quantum"]
	if len(q) != 2 {
		t.Fatalf("quantum slices = %d, want 2: %+v", len(q), q)
	}
	if q[0].ts != 10 || q[0].dur != 10 {
		t.Fatalf("quantum[0] = %+v", q[0])
	}
	if q[1].ts != 11 || q[1].dur != 42-11 {
		t.Fatalf("quantum[1] (trailing-open) = %+v", q[1])
	}
	// Lock holds: proc 0's [12,15]; proc 1's acquire closed at maxTs.
	held := slices["held"]
	if len(held) != 2 {
		t.Fatalf("held slices = %d, want 2: %+v", len(held), held)
	}
	if held[0].ts != 12 || held[0].dur != 3 {
		t.Fatalf("held[0] = %+v", held[0])
	}
	if held[1].ts != 17 || held[1].dur != 42-17 {
		t.Fatalf("held[1] = %+v", held[1])
	}
	// Spin slice from the contend event.
	spin := slices["spin alloc"]
	if len(spin) != 1 || spin[0].ts != 13 || spin[0].dur != 4 {
		t.Fatalf("spin = %+v", spin)
	}
	// Scavenge shows on both the proc track and the gc track.
	scav := slices["scavenge"]
	if len(scav) != 2 {
		t.Fatalf("scavenge slices = %d, want 2: %+v", len(scav), scav)
	}
}

func TestPerfettoUnmatchedEndDropped(t *testing.T) {
	events := []Event{
		// Ring truncation left a bare quantum-end and lock-release.
		{Kind: KQuantumEnd, Proc: 0, At: 5},
		{Kind: KLockRelease, Proc: 0, At: 6, Str: "sched", Arg2: 1},
		{Kind: KQuantumStart, Proc: 0, At: 8},
		{Kind: KQuantumEnd, Proc: 0, At: 9},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, events, 1); err != nil {
		t.Fatal(err)
	}
	out := decodePerfetto(t, &buf)
	quanta := 0
	for _, e := range out {
		if e["ph"] == "X" && e["name"] == "quantum" {
			quanta++
			if ts := int64(e["ts"].(float64)); ts != 8 {
				t.Fatalf("quantum ts = %d, want 8", ts)
			}
		}
		if e["ph"] == "X" && e["name"] == "held" {
			t.Fatalf("orphan release produced a hold slice: %+v", e)
		}
	}
	if quanta != 1 {
		t.Fatalf("quantum slices = %d, want 1", quanta)
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
