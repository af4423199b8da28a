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

// standardState answers the standard state named name.
func standardState(name string) (State, bool) {
	for _, st := range StandardStates() {
		if st.Name == name {
			return st, true
		}
	}
	return State{}, false
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

// with returns st with edit applied to every configuration it builds.
func (st State) with(edit func(*core.Config)) State {
	base := st.Config
	st.Config = func() core.Config {
		cfg := base()
		edit(&cfg)
		return cfg
	}
	return st
}

// histograms turns the latency registry on. It is pure observation
// (TestGoldenHistogramInvariance): times and counters are unchanged.
func histograms(cfg *core.Config) { cfg.Histograms = true }

// runState is every experiment's state runner: it boots st, runs the
// macro benchmarks named by selectors in order, hands the live system
// to observe (when non-nil), and shuts the system down whatever
// happens. It answers each benchmark's virtual milliseconds.
func runState(st State, selectors []string, observe func(*core.System) error) ([]int64, error) {
	sys, err := NewBenchSystem(st)
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()
	ms := make([]int64, len(selectors))
	for i, sel := range selectors {
		if ms[i], err = RunMacro(sys, sel); err != nil {
			return nil, fmt.Errorf("bench: %s/%s: %w", st.Name, sel, err)
		}
	}
	if observe != nil {
		if err := observe(sys); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// macroSelectors answers the Table 2 benchmarks' selectors in column
// order.
func macroSelectors() []string {
	sels := make([]string, len(MacroBenchmarks))
	for i, b := range MacroBenchmarks {
		sels[i] = b.Selector
	}
	return sels
}
