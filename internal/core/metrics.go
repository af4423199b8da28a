package core

import (
	"fmt"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/interp"
	"mst/internal/trace"
)

// The unified metrics registry: one typed snapshot of every counter the
// simulator keeps — per-processor time accounting, per-lock contention,
// heap/scavenge activity, and interpreter counters — with derived
// percentages precomputed. Each counter is declared once, in the layer
// that counts it (firefly.ProcStats, firefly.LockStats, heap.Stats,
// interp.Stats, each carrying its JSON keys); this file adds only the
// derived shares and the machine, trace and latency sections. Every
// report (msbench and its -json report, mst -stats) reads from it.

// MetricsSchemaVersion versions the Metrics struct and every JSON
// document embedding it. Bump it whenever a field changes meaning or
// is removed; additions alone may keep the version. Version 3 added
// the latency-distribution section and the heap pause fields.
const MetricsSchemaVersion = 3

// ProcStats is one processor's time accounting. The percentage fields
// are fractions of the processor's own clock — the per-processor
// spin/stall shares the contention report quotes.
type ProcStats struct {
	Proc int `json:"proc"`
	firefly.ProcStats
	BusyPct  float64 `json:"busy_pct"`
	SpinPct  float64 `json:"spin_pct"`
	StallPct float64 `json:"stall_pct"`
}

// LockStats is one registered virtual lock's history. Name is the
// lock's registration name — the single naming authority every report
// shares.
type LockStats struct {
	firefly.LockStats
	ContentionPct float64 `json:"contention_pct"` // contended acquires / acquires
}

// InterpStats is the interpreter counters with hit rates derived.
type InterpStats struct {
	interp.Stats
	CacheHitPct float64 `json:"cache_hit_pct"`
	ICHitPct    float64 `json:"ic_hit_pct"`
}

// Stats aggregates every layer's statistics.
type Stats struct {
	Procs  []ProcStats `json:"procs"`
	Locks  []LockStats `json:"locks"`
	Heap   heap.Stats  `json:"heap"`
	Interp InterpStats `json:"interp"`
}

// Stats returns a snapshot of the system's statistics.
func (s *System) Stats() Stats {
	m := s.VM.M
	st := Stats{
		Procs:  make([]ProcStats, m.NumProcs()),
		Heap:   s.VM.H.Stats(),
		Interp: InterpStats{Stats: s.VM.Stats()},
	}
	for i := range st.Procs {
		st.Procs[i] = ProcStats{Proc: i, ProcStats: m.Proc(i).Stats()}
	}
	locks := m.LockStats()
	st.Locks = make([]LockStats, len(locks))
	for i, l := range locks {
		st.Locks[i].LockStats = l
	}
	st.derive()
	return st
}

// derive fills in every percentage field from the raw counters; a
// share with no denominator (a clock at zero, a lock never acquired,
// inline caches off) stays 0.
func (st *Stats) derive() {
	for i := range st.Procs {
		p := &st.Procs[i]
		if p.Clock > 0 {
			c := float64(p.Clock)
			p.BusyPct = 100 * float64(p.Busy) / c
			p.SpinPct = 100 * float64(p.Spin) / c
			p.StallPct = 100 * float64(p.Stall) / c
		}
	}
	for i := range st.Locks {
		l := &st.Locks[i]
		if l.Acquisitions > 0 {
			l.ContentionPct = 100 * float64(l.Contentions) / float64(l.Acquisitions)
		}
	}
	in := &st.Interp
	if probes := in.CacheHits + in.CacheMisses; probes > 0 {
		in.CacheHitPct = 100 * float64(in.CacheHits) / float64(probes)
	}
	if probes := in.ICHits + in.ICMisses; probes > 0 {
		in.ICHitPct = 100 * float64(in.ICHits) / float64(probes)
	}
}

// MachineMetrics summarizes the virtual machine room: the simulated
// multiprocessor itself.
type MachineMetrics struct {
	NumProcs         int    `json:"num_procs"`
	Switches         uint64 `json:"switches"` // processor quantum dispatches
	VirtualTimeTicks int64  `json:"virtual_time_ticks"`
	VirtualTimeMS    int64  `json:"virtual_time_ms"`
}

// TraceMetrics reports on the flight recorder itself.
type TraceMetrics struct {
	Events  uint64 `json:"events"`  // events ever emitted
	Dropped uint64 `json:"dropped"` // overwritten by the ring
}

// String is the flight-recorder line mst -trace prints.
func (t TraceMetrics) String() string {
	return fmt.Sprintf("flight recorder: %d events emitted, %d overwritten by the ring", t.Events, t.Dropped)
}

// Metrics is the unified snapshot of every simulator counter: the
// layers' Stats plus the machine, flight-recorder and latency sections.
type Metrics struct {
	SchemaVersion int            `json:"schema_version"`
	Machine       MachineMetrics `json:"machine"`
	Stats
	Trace TraceMetrics `json:"trace"`

	// Latency is present when the latency-histogram registry was
	// attached (Config.Histograms); its distributions are over virtual
	// ticks and deterministic in the deterministic mode.
	Latency *trace.LatencyMetrics `json:"latency,omitempty"`
}

// Metrics assembles the unified metrics registry: every layer's
// counters in one typed, versioned snapshot with derived percentages.
func (s *System) Metrics() Metrics {
	m := s.VM.M
	vt := int64(s.VirtualTime())
	mt := Metrics{
		SchemaVersion: MetricsSchemaVersion,
		Machine: MachineMetrics{
			NumProcs:         m.NumProcs(),
			Switches:         m.Switches(),
			VirtualTimeTicks: vt,
			VirtualTimeMS:    vt / 1000,
		},
		Stats: s.Stats(),
	}
	if r := m.Recorder(); r != nil {
		mt.Trace = TraceMetrics{Events: r.Total(), Dropped: r.Dropped()}
	}
	if lh := m.LatencyHists(); lh != nil {
		mt.Latency = lh.Snapshot()
	}
	return mt
}
