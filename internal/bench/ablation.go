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

// Ablation is one design-alternative experiment: a set of labelled
// configurations measured on the ablation benchmarks against baseline
// BS, reporting per-benchmark overheads.
type Ablation struct {
	Name    string
	Claim   string // what the paper says
	Labels  []string
	Benches []string
	// Ms[label][bench], with an extra leading row for baseline BS.
	Ms [][]int64
}

type ablationCase struct {
	label  string
	config func() core.Config
	busy   int
}

func runAblation(name, claim string, cases []ablationCase) (*Ablation, error) {
	a := &Ablation{Name: name, Claim: claim, Benches: ablationBenches}
	all := append([]ablationCase{{label: "baseline BS", config: core.BaselineConfig}}, cases...)
	for _, c := range all {
		st := State{Name: c.label, Config: c.config}
		sys, err := NewBenchSystem(st)
		if err != nil {
			return nil, err
		}
		if c.busy > 0 {
			if err := sys.SpawnBusyProcesses(c.busy); err != nil {
				sys.Shutdown()
				return nil, err
			}
		}
		row := make([]int64, 0, len(ablationBenches))
		for _, b := range ablationBenches {
			ms, err := RunMacro(sys, b)
			if err != nil {
				sys.Shutdown()
				return nil, fmt.Errorf("bench: ablation %s/%s/%s: %w", name, c.label, b, err)
			}
			row = append(row, ms)
		}
		sys.Shutdown()
		a.Labels = append(a.Labels, c.label)
		a.Ms = append(a.Ms, row)
	}
	return a, nil
}

// WorstOverhead answers the worst-case fractional overhead of row i
// (skipping the baseline row 0) versus baseline.
func (a *Ablation) WorstOverhead(i int) float64 {
	worst := 0.0
	for j := range a.Benches {
		over := float64(a.Ms[i][j])/float64(a.Ms[0][j]) - 1
		if over > worst {
			worst = over
		}
	}
	return worst
}

// Format renders the ablation as a table plus the worst-case summary.
func (a *Ablation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\nPaper: %s\n\n", a.Name, a.Claim)
	fmt.Fprintf(&b, "%-34s", "Configuration")
	for _, bench := range a.Benches {
		fmt.Fprintf(&b, "%22s", bench)
	}
	fmt.Fprintf(&b, "%12s\n", "worst ovh")
	b.WriteString(strings.Repeat("-", 34+22*len(a.Benches)+12))
	b.WriteString("\n")
	for i, label := range a.Labels {
		fmt.Fprintf(&b, "%-34s", label)
		for j := range a.Benches {
			fmt.Fprintf(&b, "%20dms", a.Ms[i][j])
		}
		if i == 0 {
			fmt.Fprintf(&b, "%12s\n", "—")
		} else {
			fmt.Fprintf(&b, "%11.0f%%\n", a.WorstOverhead(i)*100)
		}
	}
	return b.String()
}

// RunFreeListAblation reproduces the paper's §3.2 free-context-list
// claim: "Replication of the free context list yielded a reduction in
// the worst-case overhead from 160% to 65%."
func RunFreeListAblation() (*Ablation, error) {
	return runAblation(
		"free context list (busy state)",
		"replication reduced worst-case overhead from 160% to 65%",
		[]ablationCase{
			{label: "MS + 4 busy, shared locked list", busy: 4, config: func() core.Config {
				c := core.DefaultConfig()
				c.FreeContexts = interp.FreeCtxSharedLocked
				return c
			}},
			{label: "MS + 4 busy, replicated lists", busy: 4, config: core.DefaultConfig},
		})
}

// RunMethodCacheAblation reproduces the §3.2 method-cache claim: the
// serialized cache made the system run "much too slowly" until it was
// replicated per processor.
func RunMethodCacheAblation() (*Ablation, error) {
	return runAblation(
		"method cache (busy state)",
		"the serialized cache caused the system to run much too slowly; replication solved it",
		[]ablationCase{
			{label: "MS + 4 busy, shared locked cache", busy: 4, config: func() core.Config {
				c := core.DefaultConfig()
				c.MethodCache = interp.CacheSharedLocked
				return c
			}},
			{label: "MS + 4 busy, replicated caches", busy: 4, config: core.DefaultConfig},
		})
}

// RunAllocAblation measures the paper's §4 suggestion: "replication of
// the new-object space should have significant benefits."
func RunAllocAblation() (*Ablation, error) {
	return runAblation(
		"allocation area (busy state)",
		"future work: replicating the new-object space should have significant benefits",
		[]ablationCase{
			{label: "MS + 4 busy, serialized allocation", busy: 4, config: core.DefaultConfig},
			{label: "MS + 4 busy, per-processor areas", busy: 4, config: func() core.Config {
				c := core.DefaultConfig()
				c.Alloc = heap.AllocPerProcessor
				return c
			}},
		})
}

// ScavengeRow is one line of the scavenge experiment.
type ScavengeRow struct {
	Processors  int
	EdenWords   int
	Scavenges   uint64
	ElapsedMS   int64
	GCTimeShare float64 // scavenging time / benchmark elapsed time
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
		share := 0.0
		if elapsed > 0 {
			share = float64((after.ScavengeTime-before.ScavengeTime)/firefly.TicksPerMS) / float64(elapsed)
		}
		rows = append(rows, ScavengeRow{
			Processors:  k,
			EdenWords:   cfg.EdenWords,
			Scavenges:   after.Scavenges - before.Scavenges,
			ElapsedMS:   elapsed,
			GCTimeShare: share,
		})
		sys.Shutdown()
	}
	return rows, nil
}

// FormatScavenge renders the scavenge experiment.
func FormatScavenge(rows []ScavengeRow) string {
	var b strings.Builder
	b.WriteString("Scavenge experiment (paper §3.1): eden scaled as k·s with k processors\n")
	b.WriteString("(k-1 busy allocators + a fixed allocation loop; paper: scavenge\n")
	b.WriteString(" frequency stays constant, scavenging ≈3% of time on a uniprocessor)\n\n")
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s\n",
		"procs", "eden(words)", "scavenges", "elapsed", "gc share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %12d %12d %10dms %11.1f%%\n",
			r.Processors, r.EdenWords, r.Scavenges, r.ElapsedMS, r.GCTimeShare*100)
	}
	return b.String()
}
