package trace

// Latency histograms: deterministic fixed-bucket log-linear histograms
// over virtual-time tick values, HDR-style. Values are bucketed into 16
// linear sub-buckets per power-of-two range, so relative error is
// bounded by 1/16 everywhere while the bucket layout is a pure function
// of the value — two runs that observe the same virtual-time samples
// produce bit-identical bucket counts, which is what lets msbench -gate
// compare them exactly.
//
// Recording uses atomic adds so the same histogram works unchanged in
// the true-parallel host mode (where samples arrive from many
// goroutines); determinism of the *counts* then depends only on the
// determinism of the samples, which holds in the deterministic mode.

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// histSubBits: 16 linear sub-buckets per power-of-two range.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // 16
	// Values 0..15 occupy indices 0..15; every wider value v has
	// bits.Len64(v) in 5..64, giving exponents 0..59 of histSub
	// buckets each.
	histBuckets = histSub + 60*histSub // 976
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(u uint64) int {
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - histSubBits - 1
	sub := u >> uint(exp) // in [histSub, 2*histSub)
	return exp*histSub + int(sub)
}

// bucketLo returns the smallest value that maps to bucket i.
func bucketLo(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := i/histSub - 1
	sub := i%histSub + histSub
	return int64(sub) << uint(exp)
}

// bucketHi returns the largest value that maps to bucket i.
func bucketHi(i int) int64 {
	if i < histSub-1 {
		return int64(i)
	}
	next := i + 1
	exp := next/histSub - 1
	sub := next%histSub + histSub
	return int64(sub)<<uint(exp) - 1
}

// Histogram is a fixed-bucket log-linear histogram of non-negative
// int64 samples (virtual-time ticks). The zero value is ready to use.
// All methods are safe for concurrent use.
type Histogram struct {
	counts [histBuckets]uint64
	count  int64
	sum    int64
	max    int64
}

// Record adds one sample. Negative samples are clamped to zero (they
// cannot occur for well-formed virtual durations, but a clamp keeps the
// bucket math total). A nil histogram is a detached one: the wrapper
// inlines, so the site costs one pointer test.
func (h *Histogram) Record(v int64) {
	if h != nil {
		h.record(v)
	}
}

func (h *Histogram) record(v int64) {
	if v < 0 {
		v = 0
	}
	atomic.AddUint64(&h.counts[bucketIndex(uint64(v))], 1)
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
	for {
		old := atomic.LoadInt64(&h.max)
		if v <= old || atomic.CompareAndSwapInt64(&h.max, old, v) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.count) }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return atomic.LoadInt64(&h.sum) }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return atomic.LoadInt64(&h.max) }

// Merge adds other's samples into h. Merging is exact: the resulting
// bucket counts equal those of a histogram that recorded both sample
// streams, in any order — merge is associative and commutative.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range other.counts {
		if n := atomic.LoadUint64(&other.counts[i]); n > 0 {
			atomic.AddUint64(&h.counts[i], n)
		}
	}
	atomic.AddInt64(&h.count, atomic.LoadInt64(&other.count))
	atomic.AddInt64(&h.sum, atomic.LoadInt64(&other.sum))
	om := atomic.LoadInt64(&other.max)
	for {
		old := atomic.LoadInt64(&h.max)
		if om <= old || atomic.CompareAndSwapInt64(&h.max, old, om) {
			return
		}
	}
}

// Percentile returns the value at or below which p percent of samples
// fall, reported as the upper edge of the bucket containing that rank
// (capped at Max). p >= 100 returns Max; an empty histogram returns 0.
// The result is a pure function of the bucket counts, so it is as
// deterministic as the samples themselves.
func (h *Histogram) Percentile(p float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if p >= 100 {
		return h.Max()
	}
	if p < 0 {
		p = 0
	}
	rank := int64(p/100*float64(total) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += int64(atomic.LoadUint64(&h.counts[i]))
		if cum >= rank {
			hi := bucketHi(i)
			if m := h.Max(); hi > m {
				hi = m
			}
			return hi
		}
	}
	return h.Max()
}

// HistBucket is one non-empty bucket in a snapshot: Lo is the bucket's
// inclusive lower edge, N its sample count.
type HistBucket struct {
	Lo int64  `json:"lo"`
	N  uint64 `json:"n"`
}

// HistSnapshot is the exported form of a Histogram: summary statistics,
// derived percentiles, and the sparse bucket vector. Bucket contents
// are exact, so two snapshots of deterministic runs compare equal
// field-for-field.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Max     int64        `json:"max"`
	P50     int64        `json:"p50"`
	P90     int64        `json:"p90"`
	P95     int64        `json:"p95"`
	P99     int64        `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
	}
	for i := range h.counts {
		if n := atomic.LoadUint64(&h.counts[i]); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Lo: bucketLo(i), N: n})
		}
	}
	return s
}

// GCCriticalPath records one parallel scavenge's critical path: which
// worker was the long pole, how long it worked relative to the sum of
// all workers, and how much stealing happened. Efficiency — how close
// the parallel window came to a perfect split — is SumTicks divided by
// Workers times LongPoleTicks.
type GCCriticalPath struct {
	Scavenge      uint64 `json:"scavenge"`  // 1-based scavenge ordinal
	LongPole      int    `json:"long_pole"` // worker (processor) id
	LongPoleTicks int64  `json:"long_pole_ticks"`
	SumTicks      int64  `json:"sum_ticks"`
	Workers       int    `json:"workers"`
	Steals        uint64 `json:"steals"`
}

// Efficiency returns SumTicks/(Workers·LongPoleTicks) in [0,1]: 1.0
// means every worker finished together, 1/Workers means one worker did
// everything.
func (c GCCriticalPath) Efficiency() float64 {
	if c.Workers == 0 || c.LongPoleTicks == 0 {
		return 0
	}
	return float64(c.SumTicks) / (float64(c.Workers) * float64(c.LongPoleTicks))
}

// The fixed series of a LatencyHists: the first argument of Record.
const (
	ScavengePause  = iota // full STW pause per scavenge
	ScavRendezvous        // pause share: stopping/synchronizing processors
	ScavCopy              // pause share: copying survivors
	ScavTerm              // pause share: termination detection
	FullGCPause           // full STW pause per full collection
	Dispatch              // scheduler dispatch latency per quantum
	ConcMarkPause         // STW window (snapshot or finalize) per concurrent-mark cycle
	ConcMarkSlice         // ticks per bounded concurrent mark slice
	numSeries
)

// LatencyHists is the registry of virtual-time latency distributions.
// Attach one to the machine (Machine.SetLatencyHists) before boot. The
// methods instrumented layers call (Record, LockHist, AddCriticalPath)
// accept a nil registry — histograms switched off — so a recording
// site needs no guard and costs one pointer test when detached.
type LatencyHists struct {
	series [numSeries]Histogram

	mu        sync.Mutex
	lockNames []string
	lockHists []*Histogram

	//msvet:stw-safe critical-path accumulator lock: AddCriticalPath is called once at scavenge end while the world is still stopped; bounded append, no nesting
	cpMu      sync.Mutex
	critPaths []GCCriticalPath
}

// NewLatencyHists returns an empty registry.
func NewLatencyHists() *LatencyHists { return &LatencyHists{} }

// Record adds one sample to a fixed series.
func (l *LatencyHists) Record(series int, v int64) {
	if l != nil {
		l.series[series].record(v)
	}
}

// LockHist returns the acquire-wait histogram for the named lock,
// creating it on first use. Locks registered under the same name share
// one histogram. A nil registry hands out nil (detached) histograms.
func (l *LatencyHists) LockHist(name string) *Histogram {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, n := range l.lockNames {
		if n == name {
			return l.lockHists[i]
		}
	}
	h := &Histogram{}
	l.lockNames = append(l.lockNames, name)
	l.lockHists = append(l.lockHists, h)
	return h
}

// AddCriticalPath appends one parallel scavenge's critical-path record.
func (l *LatencyHists) AddCriticalPath(c GCCriticalPath) {
	if l == nil {
		return
	}
	l.cpMu.Lock()
	l.critPaths = append(l.critPaths, c)
	l.cpMu.Unlock()
}

// CriticalPaths returns a copy of the recorded critical paths.
func (l *LatencyHists) CriticalPaths() []GCCriticalPath {
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	return append([]GCCriticalPath(nil), l.critPaths...)
}

// LockWaitSnapshot pairs a lock name with its wait distribution.
type LockWaitSnapshot struct {
	Name string       `json:"name"`
	Hist HistSnapshot `json:"hist"`
}

// LatencyMetrics is the metrics-registry section for the latency
// distributions (Metrics.Latency, schema version 3).
type LatencyMetrics struct {
	ScavengePause  HistSnapshot       `json:"scavenge_pause"`
	ScavRendezvous HistSnapshot       `json:"scav_rendezvous"`
	ScavCopy       HistSnapshot       `json:"scav_copy"`
	ScavTerm       HistSnapshot       `json:"scav_term"`
	FullGCPause    HistSnapshot       `json:"full_gc_pause"`
	Dispatch       HistSnapshot       `json:"dispatch"`
	ConcMarkPause  HistSnapshot       `json:"conc_mark_pause"`
	ConcMarkSlice  HistSnapshot       `json:"conc_mark_slice"`
	LockWait       []LockWaitSnapshot `json:"lock_wait,omitempty"`
	CriticalPaths  []GCCriticalPath   `json:"critical_paths,omitempty"`
}

// Snapshot captures every distribution in the registry. Lock-wait
// entries appear in registration order — the same naming authority the
// lock metrics use.
func (l *LatencyHists) Snapshot() *LatencyMetrics {
	m := &LatencyMetrics{
		ScavengePause:  l.series[ScavengePause].Snapshot(),
		ScavRendezvous: l.series[ScavRendezvous].Snapshot(),
		ScavCopy:       l.series[ScavCopy].Snapshot(),
		ScavTerm:       l.series[ScavTerm].Snapshot(),
		FullGCPause:    l.series[FullGCPause].Snapshot(),
		Dispatch:       l.series[Dispatch].Snapshot(),
		ConcMarkPause:  l.series[ConcMarkPause].Snapshot(),
		ConcMarkSlice:  l.series[ConcMarkSlice].Snapshot(),
		CriticalPaths:  l.CriticalPaths(),
	}
	l.mu.Lock()
	for i, name := range l.lockNames {
		m.LockWait = append(m.LockWait, LockWaitSnapshot{Name: name, Hist: l.lockHists[i].Snapshot()})
	}
	l.mu.Unlock()
	return m
}

// histLine renders one distribution as a fixed-width report row.
func histLine(name string, s HistSnapshot) string {
	if s.Count == 0 {
		return fmt.Sprintf("  %-16s %8s\n", name, "-")
	}
	mean := float64(s.Sum) / float64(s.Count)
	return fmt.Sprintf("  %-16s %8d %10.1f %8d %8d %8d %8d\n",
		name, s.Count, mean, s.P50, s.P90, s.P99, s.Max)
}

// Report renders the registry as the human-readable section of the
// gcreport rollup: every GC distribution, the dispatch latency, the
// busiest lock waits, and the parallel-scavenge critical paths.
func (l *LatencyHists) Report() string {
	var b strings.Builder
	m := l.Snapshot()
	b.WriteString("latency distributions (virtual ticks)\n")
	fmt.Fprintf(&b, "  %-16s %8s %10s %8s %8s %8s %8s\n",
		"series", "count", "mean", "p50", "p90", "p99", "max")
	b.WriteString(histLine("scavenge.pause", m.ScavengePause))
	b.WriteString(histLine("  rendezvous", m.ScavRendezvous))
	b.WriteString(histLine("  copy", m.ScavCopy))
	b.WriteString(histLine("  termination", m.ScavTerm))
	b.WriteString(histLine("fullgc.pause", m.FullGCPause))
	b.WriteString(histLine("concmark.pause", m.ConcMarkPause))
	b.WriteString(histLine("  slice", m.ConcMarkSlice))
	b.WriteString(histLine("dispatch", m.Dispatch))

	// Lock waits, busiest (by total wait) first.
	waits := append([]LockWaitSnapshot(nil), m.LockWait...)
	sort.SliceStable(waits, func(i, j int) bool { return waits[i].Hist.Sum > waits[j].Hist.Sum })
	shown := 0
	for _, w := range waits {
		if w.Hist.Count == 0 {
			continue
		}
		if shown == 0 {
			b.WriteString("lock acquire-wait (virtual ticks)\n")
		}
		b.WriteString(histLine(w.Name, w.Hist))
		if shown++; shown >= 8 {
			break
		}
	}

	if len(m.CriticalPaths) > 0 {
		b.WriteString("parallel scavenge critical path\n")
		fmt.Fprintf(&b, "  %-9s %9s %10s %10s %8s %7s %6s\n",
			"scavenge", "long-pole", "pole-ticks", "sum-ticks", "workers", "steals", "eff")
		var sumEff float64
		for _, c := range m.CriticalPaths {
			fmt.Fprintf(&b, "  %-9d proc %-4d %10d %10d %8d %7d %5.0f%%\n",
				c.Scavenge, c.LongPole, c.LongPoleTicks, c.SumTicks, c.Workers, c.Steals,
				100*c.Efficiency())
			sumEff += c.Efficiency()
		}
		fmt.Fprintf(&b, "  mean steal efficiency: %.0f%% over %d parallel scavenges\n",
			100*sumEff/float64(len(m.CriticalPaths)), len(m.CriticalPaths))
	}
	return b.String()
}
