package bench

import (
	"fmt"
	"strings"

	"mst/internal/core"
)

// The paper's §6 plans "to add sufficient instrumentation to MS to
// gather data about how different concurrent programming paradigms
// affect memory reference patterns and contention for resources, and
// how architectural constraints... influence the system." The simulator
// records all of this; these reports expose it.

// SweepRow is one processor-count measurement.
type SweepRow struct {
	Processors int   `json:"procs"`
	ElapsedMS  int64 `json:"virtual_ms"`
}

// RunProcessorSweep measures how the busy-competition overhead grows
// with the processor count: MS with k processors and k-1 busy
// Processes, k = 1..5, on one representative benchmark. This probes the
// architectural question (shared-bus pressure and lock contention as
// processors are added) the paper defers to future work.
func RunProcessorSweep() ([]SweepRow, error) {
	var rows []SweepRow
	for k := 1; k <= 5; k++ {
		st := StandardStates()[1].with(func(c *core.Config) { c.Processors = k })
		st.Name = fmt.Sprintf("ms-%dproc", k)
		st.Background = func(s *core.System) error { return s.SpawnBusyProcesses(k - 1) }
		row, err := runState(st, []string{"printClassHierarchy"}, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{Processors: k, ElapsedMS: row[0]})
	}
	return rows, nil
}

// formatSweep renders the processor sweep, normalized to the
// 1-processor run.
func formatSweep(rows []SweepRow) string {
	var b strings.Builder
	b.WriteString("Processor sweep (extension; paper §6 future work):\n")
	b.WriteString("MS with k processors, k-1 busy Processes, one measured benchmark\n\n")
	fmt.Fprintf(&b, "%6s %12s %12s\n", "procs", "elapsed", "normalized")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %10dms %12.2f\n", r.Processors, r.ElapsedMS, float64(r.ElapsedMS)/float64(rows[0].ElapsedMS))
	}
	return b.String()
}

// formatContention renders the contention view of Table 2's metrics
// registries — the resource-contention instrumentation the paper
// planned: the per-lock table over each state's whole run, then each
// processor's spin and stall time as a share of its own clock.
func formatContention(r *JSONReport) string {
	var b strings.Builder
	header := func(first string) {
		fmt.Fprintf(&b, "%-14s", first)
		for _, st := range r.Table2 {
			fmt.Fprintf(&b, "%28s", st.State)
		}
		b.WriteString("\n")
		b.WriteString(strings.Repeat("-", 14+28*len(r.Table2)))
		b.WriteString("\n")
	}
	b.WriteString("Lock contention by system state over the Table 2 runs (extension; paper §6\n")
	b.WriteString("instrumentation): acquisitions / contended attempts / spin time, per lock\n\n")
	header("lock")
	// Locks register in a fixed order at boot, so every state lists them
	// alike.
	for li, lock := range r.Table2[0].Metrics.Locks {
		fmt.Fprintf(&b, "%-14s", lock.Name)
		for _, st := range r.Table2 {
			l := st.Metrics.Locks[li]
			fmt.Fprintf(&b, "%28s", fmt.Sprintf("%d/%d/%s", l.Acquisitions, l.Contentions, l.SpinTime))
		}
		b.WriteString("\n")
	}
	b.WriteString("\nPer-processor spin and stall time (% of that processor's clock):\n\n")
	header("proc")
	maxProcs := 0
	for _, st := range r.Table2 {
		maxProcs = max(maxProcs, len(st.Metrics.Procs))
	}
	for pi := 0; pi < maxProcs; pi++ {
		fmt.Fprintf(&b, "cpu %-10d", pi)
		for _, st := range r.Table2 {
			cell := "-"
			if pi < len(st.Metrics.Procs) {
				p := st.Metrics.Procs[pi]
				cell = fmt.Sprintf("spin %.2f%% stall %.2f%%", p.SpinPct, p.StallPct)
			}
			fmt.Fprintf(&b, "%28s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
