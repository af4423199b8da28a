package bench

import (
	"fmt"
	"io"
	"os"

	"mst/internal/core"
	"mst/internal/trace"
)

// ObserveResult is one observed benchmark run: the flight-recorder
// trace, the selector profile, and the metrics snapshot, produced
// together by RunObserved for the msbench -trace / -profile flags.
type ObserveResult struct {
	State        string
	Benchmark    string
	VirtualMS    int64
	Metrics      core.Metrics
	Profile      string // empty unless profiling was requested
	AllocProfile string // empty unless allocation profiling was requested
}

// RunObserved runs one macro benchmark on the ms-busy standard state
// with the flight recorder attached (and, when profile or allocProfile
// are set, the matching profilers). The busy state is the interesting
// one to observe: all five processors execute, the locks contend, and
// the scavenger runs. The trace is written to tracePath when non-empty.
func RunObserved(tracePath string, profile, allocProfile bool) (*ObserveResult, error) {
	states := StandardStates()
	st := states[len(states)-1] // ms-busy
	base := st.Config
	st.Config = func() core.Config {
		cfg := base()
		cfg.TraceEvents = trace.DefaultRingSize
		cfg.Profile = profile
		cfg.AllocProfile = allocProfile
		return cfg
	}
	sys, err := NewBenchSystem(st)
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()

	const selector = "printClassHierarchy"
	ms, err := RunMacro(sys, selector)
	if err != nil {
		return nil, fmt.Errorf("bench: observed %s/%s: %w", st.Name, selector, err)
	}
	res := &ObserveResult{
		State:     st.Name,
		Benchmark: selector,
		VirtualMS: ms,
		Metrics:   sys.Metrics(),
	}
	if profile {
		rep, err := sys.ProfileReport(25)
		if err != nil {
			return nil, err
		}
		res.Profile = rep
	}
	if allocProfile {
		rep, err := sys.AllocProfileReport(10)
		if err != nil {
			return nil, err
		}
		res.AllocProfile = rep
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		if err := sys.WriteTrace(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Format renders the observed run's summary.
func (r *ObserveResult) Format(w io.Writer) {
	fmt.Fprintf(w, "observed %s on %s: %d virtual ms\n", r.Benchmark, r.State, r.VirtualMS)
	fmt.Fprintf(w, "flight recorder: %d events emitted, %d overwritten by the ring\n",
		r.Metrics.Trace.Events, r.Metrics.Trace.Dropped)
	if r.Profile != "" {
		fmt.Fprintf(w, "\n%s", r.Profile)
	}
	if r.AllocProfile != "" {
		fmt.Fprintf(w, "\n%s", r.AllocProfile)
	}
}
