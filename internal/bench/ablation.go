package bench

import (
	"fmt"
	"strings"

	"mst/internal/core"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/interp"
)

// ablationBenches is the subset of macro benchmarks the ablations sweep
// (long enough to time reliably, short enough to run many configs).
var ablationBenches = []string{
	"printClassHierarchy", "createInspectorView", "decompileClass",
}

// StrategyRow is one configuration of the strategies section.
type StrategyRow struct {
	Config string  `json:"config"`
	Ms     []int64 `json:"virtual_ms"` // per ablationBenches entry
}

// StrategyReport is §3.2's and §4's strategy ablations in one table:
// baseline BS, the busy state as the paper built it, and the busy state
// with one structure's strategy changed per row.
type StrategyReport struct {
	Benches []string      `json:"benches"`
	Rows    []StrategyRow `json:"rows"`
}

// strategyCases are the strategies section's runs: baseline BS, the
// busy state as the paper built it, and the busy state with one
// structure's strategy swapped, beside the paper's claim about it.
var strategyCases = []struct {
	config, claim string
	state         int // into StandardStates
	edit          func(*core.Config)
}{
	{"baseline BS", "", 0, unedited},
	{"MS + 4 busy", "", 3, unedited},
	{"MS + 4 busy, shared locked free list",
		"§3.2: replicating the free context list cut the worst-case overhead from 160% to 65%",
		3, func(c *core.Config) { c.FreeContexts = interp.FreeCtxSharedLocked }},
	{"MS + 4 busy, shared locked method cache",
		"§3.2: the serialized cache ran \"much too slowly\"; replicating it solved the problem",
		3, func(c *core.Config) { c.MethodCache = interp.CacheSharedLocked }},
	{"MS + 4 busy, per-processor alloc areas",
		"§4: replicating the new-object space \"should have significant benefits\"",
		3, func(c *core.Config) { c.Alloc = heap.AllocPerProcessor }},
}

// unedited keeps a case's configuration as its state builds it.
func unedited(*core.Config) {}

// RunStrategies measures the strategies section, one run per case.
func RunStrategies() (StrategyReport, error) {
	r := StrategyReport{Benches: ablationBenches}
	for _, c := range strategyCases {
		ms, err := runState(StandardStates()[c.state].with(c.edit), ablationBenches, nil)
		if err != nil {
			return r, fmt.Errorf("bench: strategies %s: %w", c.config, err)
		}
		r.Rows = append(r.Rows, StrategyRow{Config: c.config, Ms: ms})
	}
	return r, nil
}

// WorstOverhead answers the worst-case fractional overhead of row i
// versus the baseline row 0.
func (r *StrategyReport) WorstOverhead(i int) float64 {
	worst := 0.0
	for j := range r.Benches {
		worst = max(worst, float64(r.Rows[i].Ms[j])/float64(r.Rows[0].Ms[j])-1)
	}
	return worst
}

// Format renders the strategies table and the paper's claims.
func (r *StrategyReport) Format() string {
	var b strings.Builder
	b.WriteString("Strategy ablations (paper §3.2, §4): the busy state with one structure's\n")
	b.WriteString("strategy changed; worst ovh is the worst overhead versus baseline BS\n\n")
	fmt.Fprintf(&b, "%-40s", "Configuration")
	for _, bench := range r.Benches {
		fmt.Fprintf(&b, "%22s", bench)
	}
	fmt.Fprintf(&b, "%12s\n", "worst ovh")
	b.WriteString(strings.Repeat("-", 40+22*len(r.Benches)+12))
	b.WriteString("\n")
	for i, row := range r.Rows {
		fmt.Fprintf(&b, "%-40s", row.Config)
		for _, ms := range row.Ms {
			fmt.Fprintf(&b, "%20dms", ms)
		}
		if i == 0 {
			fmt.Fprintf(&b, "%12s\n", "—")
		} else {
			fmt.Fprintf(&b, "%11.0f%%\n", r.WorstOverhead(i)*100)
		}
	}
	b.WriteString("\nPaper:\n")
	for _, c := range strategyCases {
		if c.claim != "" {
			fmt.Fprintf(&b, "  %s\n", c.claim)
		}
	}
	return b.String()
}

// ScavengeRow is one line of the scavenge experiment.
type ScavengeRow struct {
	Processors    int          `json:"procs"`
	EdenWords     int          `json:"eden_words"`
	Scavenges     uint64       `json:"scavenges"`
	ElapsedMS     int64        `json:"elapsed_ms"`
	ScavengeTicks firefly.Time `json:"scavenge_ticks"`
}

// GCShare answers scavenging's share of the elapsed time, in ticks over
// ticks: a scavenge time is never rounded to whole milliseconds.
func (r ScavengeRow) GCShare() float64 {
	if r.ElapsedMS <= 0 {
		return 0
	}
	return float64(r.ScavengeTicks) / float64(firefly.Time(r.ElapsedMS)*firefly.TicksPerMS)
}

// RunScavengeExperiment reproduces §3.1's scavenging arithmetic: with a
// fixed allocation-heavy workload per processor, scaling the eden with
// the processor count (the paper's k·s rule) keeps the scavenge count
// roughly constant, and the scavenge time share stays small (paper: ~3%
// of processor time on a uniprocessor).
func RunScavengeExperiment() ([]ScavengeRow, error) {
	const edenPerProc = 8 << 10
	var rows []ScavengeRow
	for k := 1; k <= 5; k++ {
		cfg := core.DefaultConfig()
		cfg.Processors = k
		cfg.EdenWords = edenPerProc * k
		cfg.SurvivorWords = (2 << 10) * k
		cfg.ExtraSources = append(cfg.ExtraSources, MacroSource)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		// k-1 busy allocators plus the measured allocation loop: total
		// allocation pressure scales with k, eden scales with k.
		if err := sys.SpawnBusyProcesses(k - 1); err != nil {
			sys.Shutdown()
			return nil, err
		}
		before := sys.Stats().Heap
		// An interactive-style mix: mostly computation and sends, an
		// allocation every few iterations (the paper notes allocation
		// is "comparatively infrequent" in the interpreter).
		elapsed, err := sys.EvaluateInt(
			"| t0 s | t0 := self millisecondClockValue. s := 0. " +
				"1 to: 30000 do: [:i | s := s + (i bitAnd: 255). " +
				"i \\\\ 10 = 0 ifTrue: [(Array new: 8) at: 1 put: i]]. " +
				"self millisecondClockValue - t0")
		if err != nil {
			sys.Shutdown()
			return nil, err
		}
		after := sys.Stats().Heap
		rows = append(rows, ScavengeRow{
			Processors:    k,
			EdenWords:     cfg.EdenWords,
			Scavenges:     after.Scavenges - before.Scavenges,
			ElapsedMS:     elapsed,
			ScavengeTicks: after.ScavengeTime - before.ScavengeTime,
		})
		sys.Shutdown()
	}
	return rows, nil
}

// formatScavenge renders the scavenge experiment.
func formatScavenge(rows []ScavengeRow) string {
	var b strings.Builder
	b.WriteString("Scavenge experiment (paper §3.1): eden scaled as k·s with k processors\n")
	b.WriteString("(k-1 busy allocators + a fixed allocation loop; paper: scavenge\n")
	b.WriteString(" frequency stays constant, scavenging ≈3% of time on a uniprocessor)\n\n")
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s\n",
		"procs", "eden(words)", "scavenges", "elapsed", "gc share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %12d %12d %10dms %11.1f%%\n",
			r.Processors, r.EdenWords, r.Scavenges, r.ElapsedMS, r.GCShare()*100)
	}
	return b.String()
}
