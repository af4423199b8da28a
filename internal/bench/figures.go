package bench

import (
	"fmt"
	"strings"
)

// paperLabel is the Table 2 row label of the standard state named name.
func paperLabel(name string) string {
	if st, ok := standardState(name); ok {
		return st.Paper
	}
	return name
}

// macroNames answers the paper's display name and column header of the
// macro benchmark selector.
func macroNames(selector string) (paper, short string) {
	for _, b := range MacroBenchmarks {
		if b.Selector == selector {
			return b.Paper, b.Short
		}
	}
	return selector, selector
}

// formatTable2 renders Table 2 in the paper's orientation: states as
// rows, benchmarks as columns, times in virtual milliseconds.
func formatTable2(r *JSONReport) string {
	var b strings.Builder
	b.WriteString("Table 2: Preliminary performance results (reproduction)\n")
	b.WriteString("All times in virtual milliseconds on the simulated Firefly.\n\n")
	fmt.Fprintf(&b, "%-34s", "State")
	for _, bench := range r.Table2[0].Benches {
		_, short := macroNames(bench.Name)
		fmt.Fprintf(&b, "%14s", short)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 34+14*len(r.Table2[0].Benches)))
	b.WriteString("\n")
	for _, st := range r.Table2 {
		fmt.Fprintf(&b, "%-34s", paperLabel(st.State))
		for _, bench := range st.Benches {
			fmt.Fprintf(&b, "%14d", bench.VirtualMS)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// normalized answers each state's times divided by the first (baseline)
// state's: Figure 2's series.
func normalized(rows []JSONState) [][]float64 {
	out := make([][]float64, len(rows))
	for i, st := range rows {
		for j, bench := range st.Benches {
			out[i] = append(out[i], float64(bench.VirtualMS)/float64(max(rows[0].Benches[j].VirtualMS, 1)))
		}
	}
	return out
}

// overhead answers the worst and the average fractional overhead of a
// normalized series.
func overhead(series []float64) (worst, avg float64) {
	for _, v := range series {
		worst = max(worst, v-1)
		avg += v - 1
	}
	return worst, avg / float64(len(series))
}

// figure2Claims are §4's overhead claims beside the states they
// describe: "the architectural changes cost less than 15% in the worst
// case", "an additional 30% of overhead" for idle, "65% in the worst
// case, about 40% on average" for busy.
var figure2Claims = []struct{ state, label, paper string }{
	{"ms", "MS static overhead:", "<15% worst"},
	{"ms-idle", "four idle Processes:", "≤ +30% over MS"},
	{"ms-busy", "four busy Processes:", "65% worst, ~40% avg"},
}

// formatFigure2 renders Figure 2's series — each benchmark's times
// normalized to the baseline system — then the §4 overheads.
func formatFigure2(r *JSONReport) string {
	norm := normalized(r.Table2)
	var b strings.Builder
	b.WriteString("Figure 2: Preliminary overhead measurements — normalized\n")
	b.WriteString("(each benchmark's time divided by the baseline BS time)\n\n")
	fmt.Fprintf(&b, "%-34s", "benchmark")
	for _, st := range r.Table2 {
		fmt.Fprintf(&b, "%10s", st.State)
	}
	b.WriteString("\n")
	for j, bench := range r.Table2[0].Benches {
		paper, _ := macroNames(bench.Name)
		fmt.Fprintf(&b, "%-34s", paper)
		for i := range r.Table2 {
			fmt.Fprintf(&b, "%10.2f", norm[i][j])
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	b.WriteString("Overheads versus baseline (paper §4 claims in brackets):\n")
	for _, c := range figure2Claims {
		for i, st := range r.Table2 {
			if st.State == c.state {
				worst, avg := overhead(norm[i])
				fmt.Fprintf(&b, "  %-25s worst %4.0f%%  avg %4.0f%%   [paper: %s]\n", c.label, worst*100, avg*100, c.paper)
			}
		}
	}
	return b.String()
}

// FormatTable3 renders Table 3 — the strategy/application matrix — with
// pointers to the modules and the report section that measures each row.
func FormatTable3() string {
	return `Table 3: Applications of the three strategies (reproduction)

Serialization                 Replication                  Reorganization
-----------------------------------------------------------------------------
allocation                    interpretation               active process
  (heap: alloc lock;            (interp: one Interp per      (interp/sched:
   measured: strategies)         virtual processor)           thisProcess and
garbage collection            method caches                  canRun: primitives;
  (heap: stop-the-world         (interp: per-processor        running Processes
   scavenger;                    caches; measured:            stay on the ready
   measured: scavenge)           strategies)                  queue)
entry tables                  free contexts
  (heap: entry-table lock       (interp: per-processor
   on store checks)              free lists; measured:
scheduling                       strategies)
  (interp: single ready
   queue under one lock)
I/O queues
  (display: output queue,
   input sensor locks)
`
}
