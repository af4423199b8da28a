package bench

import (
	"fmt"

	"mst/internal/core"
)

// State is one of the paper's system states (Table 2 rows).
type State struct {
	// Name is a short key; Paper is the row label from Table 2.
	Name  string
	Paper string
	// Config builds the system configuration for this state.
	Config func() core.Config
	// Background spawns this state's competing Processes.
	Background func(*core.System) error
}

// StandardStates returns the four states of Table 2, in row order.
func StandardStates() []State {
	return []State{
		{
			Name:   "baseline",
			Paper:  "Baseline BS on multiprocessor",
			Config: core.BaselineConfig,
		},
		{
			Name:   "ms",
			Paper:  "MS on multiprocessor",
			Config: core.DefaultConfig,
		},
		{
			Name:   "ms-idle",
			Paper:  "MS with four idle Processes",
			Config: core.DefaultConfig,
			Background: func(s *core.System) error {
				return s.SpawnIdleProcesses(4)
			},
		},
		{
			Name:   "ms-busy",
			Paper:  "MS with four busy Processes",
			Config: core.DefaultConfig,
			Background: func(s *core.System) error {
				return s.SpawnBusyProcesses(4)
			},
		},
	}
}

// NewBenchSystem boots a system with the macro-benchmark sources filed
// in for the given state, with its background Processes running.
func NewBenchSystem(st State) (*core.System, error) {
	cfg := st.Config()
	cfg.ExtraSources = append(cfg.ExtraSources, MacroSource)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: boot %s: %w", st.Name, err)
	}
	if st.Background != nil {
		if err := st.Background(sys); err != nil {
			sys.Shutdown()
			return nil, fmt.Errorf("bench: background %s: %w", st.Name, err)
		}
	}
	return sys, nil
}

// RunMacro runs one macro benchmark on a booted system and returns its
// virtual elapsed milliseconds (measured by the benchmark Process's own
// clock, so lock spinning, bus contention, and scavenge stalls are all
// included).
func RunMacro(sys *core.System, selector string) (int64, error) {
	return sys.EvaluateInt(fmt.Sprintf("MacroBenchmark new run: #%s", selector))
}

// Table2 holds the measured matrix: Ms[state][bench] in virtual
// milliseconds.
type Table2 struct {
	States  []State
	Benches []string // paper display names
	Ms      [][]int64
}

// RunTable2 boots each state and runs the eight macro benchmarks,
// reproducing the paper's Table 2.
func RunTable2() (*Table2, error) {
	states := StandardStates()
	t := &Table2{States: states}
	for _, b := range MacroBenchmarks {
		t.Benches = append(t.Benches, b.Paper)
	}
	for _, st := range states {
		sys, err := NewBenchSystem(st)
		if err != nil {
			return nil, err
		}
		row := make([]int64, 0, len(MacroBenchmarks))
		for _, b := range MacroBenchmarks {
			ms, err := RunMacro(sys, b.Selector)
			if err != nil {
				sys.Shutdown()
				return nil, fmt.Errorf("bench: %s/%s: %w", st.Name, b.Selector, err)
			}
			row = append(row, ms)
		}
		t.Ms = append(t.Ms, row)
		sys.Shutdown()
	}
	return t, nil
}

// Normalized returns each state's times divided by the baseline row
// (Figure 2's series).
func (t *Table2) Normalized() [][]float64 {
	out := make([][]float64, len(t.Ms))
	for i, row := range t.Ms {
		out[i] = make([]float64, len(row))
		for j, v := range row {
			base := t.Ms[0][j]
			if base == 0 {
				base = 1
			}
			out[i][j] = float64(v) / float64(base)
		}
	}
	return out
}

// Overheads answers, per non-baseline state, the (worst, average)
// fractional overhead versus the baseline — the numbers §4 quotes
// ("the architectural changes cost less than 15% in the worst case",
// "an additional 30% of overhead... in the worst case" for idle, "65%
// in the worst case, about 40% on average" for busy).
func (t *Table2) Overheads() map[string]struct{ Worst, Avg float64 } {
	norm := t.Normalized()
	out := map[string]struct{ Worst, Avg float64 }{}
	for i := 1; i < len(norm); i++ {
		worst, sum := 0.0, 0.0
		for _, v := range norm[i] {
			over := v - 1
			if over > worst {
				worst = over
			}
			sum += over
		}
		out[t.States[i].Name] = struct{ Worst, Avg float64 }{
			Worst: worst,
			Avg:   sum / float64(len(norm[i])),
		}
	}
	return out
}
