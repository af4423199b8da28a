package bench

import (
	"fmt"
	"strings"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
	"mst/internal/trace"
)

// The parallel-scavenge ablation (msbench -ablation parscavenge): a
// heap-only workload — a seeded deterministic object graph, mutated
// and explicitly scavenged over several rounds — run at 1/2/4/8
// simulated processors, once with the serial scavenger and once with
// the cooperative parallel one. Everything is virtual-time
// deterministic (the parallel scavenger's simulated schedule is a pure
// function of the heap), so the rows participate in the regression
// gate and the determinism fingerprint, unlike the host-bound
// -parallel sweep.

const (
	parScavRounds = 4    // explicit scavenges
	parScavBatch  = 1500 // objects allocated per round
	parScavKeep   = 600  // rooted live window
)

// parScavProcCounts are the simulated processor counts measured.
var parScavProcCounts = []int{1, 2, 4, 8}

// ParScavRow is one processor count's measurements. Ticks are the
// summed virtual scavenge time over the workload's collections.
type ParScavRow struct {
	Procs         int     `json:"procs"`
	SerialTicks   int64   `json:"serial_scavenge_ticks"`
	ParallelTicks int64   `json:"parallel_scavenge_ticks"`
	Scavenges     uint64  `json:"scavenges"`
	CopiedWords   uint64  `json:"copied_words"`
	Steals        uint64  `json:"steals"`
	Speedup       float64 `json:"speedup"` // serial ticks / parallel ticks
	// Per-scavenge STW pause distributions (virtual ticks), one set per
	// scavenger variant. Deterministic, so they ride the gate.
	SerialPause   trace.HistSnapshot `json:"serial_pause"`
	ParallelPause trace.HistSnapshot `json:"parallel_pause"`
}

// ParScavReport is the full ablation.
type ParScavReport struct {
	Rows []ParScavRow `json:"rows"`
}

// parScavWorkload builds and churns the seeded graph: a sliding window
// of rooted objects with random-looking (LCG-derived, fully
// deterministic) edges into the recent past, scavenged each round. The
// sequence never reads an address or a clock, so every configuration
// replays identical mutations.
func parScavWorkload(h *heap.Heap, p *firefly.Proc) {
	var roots []object.OOP
	h.AddRootFunc(func(visit func(*object.OOP)) {
		for i := range roots {
			visit(&roots[i])
		}
	})
	x := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(n))
	}
	for r := 0; r < parScavRounds; r++ {
		for i := 0; i < parScavBatch; i++ {
			fields := 2 + next(5)
			o := h.Allocate(p, object.Nil, fields, object.FmtPointers)
			if len(roots) > 0 {
				h.Store(p, o, 1, roots[next(len(roots))])
			}
			roots = append(roots, o)
			if len(roots) > parScavKeep {
				k := next(len(roots))
				roots = append(roots[:k], roots[k+1:]...)
			}
		}
		h.Scavenge(p)
	}
	h.CheckInvariants()
}

// runParScavOnce runs the workload on a fresh machine and returns the
// heap statistics plus the per-scavenge pause distribution. The latency
// registry attaches before heap.New so the heap caches it.
func runParScavOnce(procs int, parScav bool) (heap.Stats, trace.HistSnapshot, error) {
	m := firefly.New(procs, firefly.DefaultCosts())
	lh := trace.NewLatencyHists()
	m.SetLatencyHists(lh)
	cfg := heap.Config{
		OldWords:      1 << 20,
		EdenWords:     32 << 10,
		SurvivorWords: 16 << 10,
		TenureAge:     4,
		Policy:        heap.AllocSerialized,
		LocksEnabled:  true,
		ParScavenge:   parScav,
	}
	h := heap.New(m, cfg)
	m.Start(0, func(p *firefly.Proc) { parScavWorkload(h, p) })
	if r := m.Run(nil); r != firefly.StopAllDone {
		return heap.Stats{}, trace.HistSnapshot{}, fmt.Errorf(
			"bench: parscavenge (procs=%d par=%v): machine stopped with %v",
			procs, parScav, r)
	}
	snap := lh.Snapshot().ScavengePause
	snap.Buckets = nil // the summary columns suffice for the ablation
	return h.Stats(), snap, nil
}

// RunParScavengeAblation measures the ablation. Each row cross-checks
// that the two scavengers agreed on the amount of live data copied —
// a divergence means a collection bug, not a performance delta.
func RunParScavengeAblation() (*ParScavReport, error) {
	r := &ParScavReport{}
	for _, procs := range parScavProcCounts {
		serial, serialPause, err := runParScavOnce(procs, false)
		if err != nil {
			return nil, err
		}
		par, parPause, err := runParScavOnce(procs, true)
		if err != nil {
			return nil, err
		}
		if serial.CopiedWords != par.CopiedWords || serial.Scavenges != par.Scavenges {
			return nil, fmt.Errorf(
				"bench: parscavenge procs=%d: scavengers diverge (serial %d words/%d collections, parallel %d/%d)",
				procs, serial.CopiedWords, serial.Scavenges, par.CopiedWords, par.Scavenges)
		}
		row := ParScavRow{
			Procs:         procs,
			SerialTicks:   int64(serial.ScavengeTime),
			ParallelTicks: int64(par.ScavengeTime),
			Scavenges:     par.Scavenges,
			CopiedWords:   par.CopiedWords,
			Steals:        par.ScavengeSteals,
			SerialPause:   serialPause,
			ParallelPause: parPause,
		}
		if row.ParallelTicks > 0 {
			row.Speedup = float64(row.SerialTicks) / float64(row.ParallelTicks)
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// FormatParScavenge renders the ablation for terminal output.
func FormatParScavenge(r *ParScavReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel scavenging ablation: %d rounds x %d allocations, ~%d rooted survivors\n\n",
		parScavRounds, parScavBatch, parScavKeep)
	fmt.Fprintf(&b, "%6s %14s %14s %10s %12s %8s %8s\n",
		"procs", "serial ticks", "parallel ticks", "scavenges", "copied words", "steals", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %14d %14d %10d %12d %8d %7.2fx\n",
			row.Procs, row.SerialTicks, row.ParallelTicks,
			row.Scavenges, row.CopiedWords, row.Steals, row.Speedup)
	}
	b.WriteString("\nPer-scavenge STW pause ticks (p50/p90/p99/max)\n")
	fmt.Fprintf(&b, "%6s %31s %31s\n", "procs", "serial", "parallel")
	for _, row := range r.Rows {
		s, p := row.SerialPause, row.ParallelPause
		fmt.Fprintf(&b, "%6d %31s %31s\n", row.Procs,
			fmt.Sprintf("%d/%d/%d/%d", s.P50, s.P90, s.P99, s.Max),
			fmt.Sprintf("%d/%d/%d/%d", p.P50, p.P90, p.P99, p.Max))
	}
	return b.String()
}
