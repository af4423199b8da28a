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
	Processors int
	ElapsedMS  int64
	Normalized float64 // vs the 1-processor MS run
}

// RunProcessorSweep measures how the busy-competition overhead grows
// with the processor count: MS with k processors and k-1 busy
// Processes, k = 1..5, on one representative benchmark. This probes the
// architectural question (shared-bus pressure and lock contention as
// processors are added) the paper defers to future work.
func RunProcessorSweep() ([]SweepRow, error) {
	var rows []SweepRow
	var base int64
	for k := 1; k <= 5; k++ {
		st := StandardStates()[1].with(func(c *core.Config) { c.Processors = k })
		st.Name = fmt.Sprintf("ms-%dproc", k)
		st.Background = func(s *core.System) error { return s.SpawnBusyProcesses(k - 1) }
		row, err := runState(st, []string{"printClassHierarchy"}, nil)
		if err != nil {
			return nil, err
		}
		ms := row[0]
		if k == 1 {
			base = ms
		}
		rows = append(rows, SweepRow{
			Processors: k,
			ElapsedMS:  ms,
			Normalized: float64(ms) / float64(base),
		})
	}
	return rows, nil
}

// FormatSweep renders the processor sweep.
func FormatSweep(rows []SweepRow) string {
	var b strings.Builder
	b.WriteString("Processor sweep (extension; paper §6 future work):\n")
	b.WriteString("MS with k processors, k-1 busy Processes, one measured benchmark\n\n")
	fmt.Fprintf(&b, "%6s %12s %12s\n", "procs", "elapsed", "normalized")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %10dms %12.2f\n", r.Processors, r.ElapsedMS, r.Normalized)
	}
	return b.String()
}

// ContentionReport is the per-state contention view of the unified
// metrics registry: every lock's statistics (under the lock's single
// registration name) plus each processor's spin and stall time as a
// share of that processor's own clock.
type ContentionReport struct {
	States  []string
	Metrics []core.Metrics // one snapshot per state, same order
}

// Locks returns the lock registration names (identical across states;
// locks are registered in a fixed order at boot).
func (r *ContentionReport) Locks() []string {
	if len(r.Metrics) == 0 {
		return nil
	}
	names := make([]string, len(r.Metrics[0].Locks))
	for i, l := range r.Metrics[0].Locks {
		names[i] = l.Name
	}
	return names
}

// RunContentionReport runs one benchmark under each standard state and
// snapshots the metrics registry — the resource-contention
// instrumentation the paper planned.
func RunContentionReport() (*ContentionReport, error) {
	r := &ContentionReport{}
	for _, st := range StandardStates() {
		_, err := runState(st, []string{"readWriteClassOrganization"}, func(sys *core.System) error {
			r.Metrics = append(r.Metrics, sys.Metrics())
			return nil
		})
		if err != nil {
			return nil, err
		}
		r.States = append(r.States, st.Name)
	}
	return r, nil
}

// Format renders the contention report: the per-lock table, then the
// per-processor spin/stall shares.
func (r *ContentionReport) Format() string {
	var b strings.Builder
	b.WriteString("Lock contention by system state (extension; paper §6 instrumentation):\n")
	b.WriteString("acquisitions / contended attempts / spin time, per lock\n\n")
	fmt.Fprintf(&b, "%-14s", "lock")
	for _, s := range r.States {
		fmt.Fprintf(&b, "%28s", s)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 14+28*len(r.States)))
	b.WriteString("\n")
	for li, lock := range r.Locks() {
		fmt.Fprintf(&b, "%-14s", lock)
		for si := range r.States {
			l := r.Metrics[si].Locks[li]
			cell := fmt.Sprintf("%d/%d/%s",
				l.Acquisitions, l.Contentions, l.SpinTime)
			fmt.Fprintf(&b, "%28s", cell)
		}
		b.WriteString("\n")
	}

	b.WriteString("\nPer-processor spin and stall time (% of that processor's clock):\n\n")
	fmt.Fprintf(&b, "%-14s", "proc")
	for _, s := range r.States {
		fmt.Fprintf(&b, "%28s", s)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 14+28*len(r.States)))
	b.WriteString("\n")
	maxProcs := 0
	for _, m := range r.Metrics {
		if len(m.Procs) > maxProcs {
			maxProcs = len(m.Procs)
		}
	}
	for pi := 0; pi < maxProcs; pi++ {
		fmt.Fprintf(&b, "cpu %-10d", pi)
		for si := range r.States {
			if pi >= len(r.Metrics[si].Procs) {
				fmt.Fprintf(&b, "%28s", "-")
				continue
			}
			p := r.Metrics[si].Procs[pi]
			cell := fmt.Sprintf("spin %.2f%% stall %.2f%%", p.SpinPct, p.StallPct)
			fmt.Fprintf(&b, "%28s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
