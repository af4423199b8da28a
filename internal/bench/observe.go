package bench

import (
	"fmt"
	"io"
	"os"
	"strings"

	"mst/internal/core"
	"mst/internal/trace"
)

// The observed run (msbench -trace, -profile, -allocprofile, -gcreport):
// one macro benchmark on the ms-busy standard state with the flight
// recorder on and the observers the flags choose. The busy state is the
// interesting one to observe: all five processors execute, the locks
// contend, and the scavenger runs.

// Observers chooses what RunObserved attaches besides the flight
// recorder; each field is one msbench flag.
type Observers struct {
	TracePath    string // -trace: write the Perfetto JSON here
	Profile      bool   // -profile: selector-level virtual-time profile
	AllocProfile bool   // -allocprofile: allocation sites, survivor and tenure rates, age census
	// GCReport (-gcreport) turns the latency histograms on and renders
	// the GC rollup: pause and phase percentiles, dispatch latency,
	// lock waits, critical paths. It brings the allocation profile.
	GCReport bool
	// ParScavenge (-parscavenge) selects the cooperative parallel
	// scavenger, so the rollup's critical-path section has material.
	ParScavenge bool
}

// ObserveResult is one observed run: its time, metrics snapshot, and
// the reports its observers rendered (empty when not requested).
type ObserveResult struct {
	State        string
	Benchmark    string
	VirtualMS    int64
	Metrics      core.Metrics
	Profile      string
	GCReport     string
	AllocProfile string
}

// RunObserved runs printClassHierarchy on the ms-busy state under o.
func RunObserved(o Observers) (*ObserveResult, error) {
	states := StandardStates()
	st := states[len(states)-1].with(func(cfg *core.Config) {
		cfg.TraceEvents = trace.DefaultRingSize
		cfg.Profile = o.Profile
		cfg.AllocProfile = o.AllocProfile || o.GCReport
		cfg.Histograms = o.GCReport
		cfg.ParScavenge = o.ParScavenge
	})
	res := &ObserveResult{State: st.Name, Benchmark: "printClassHierarchy"}
	ms, err := runState(st, []string{res.Benchmark}, func(sys *core.System) (err error) {
		res.Metrics = sys.Metrics()
		if o.Profile {
			if res.Profile, err = sys.ProfileReport(25); err != nil {
				return err
			}
		}
		if o.GCReport {
			if res.GCReport, err = gcReport(sys); err != nil {
				return err
			}
		}
		if o.AllocProfile || o.GCReport {
			if res.AllocProfile, err = sys.AllocProfileReport(10); err != nil {
				return err
			}
		}
		if o.TracePath != "" {
			return writeTrace(sys, o.TracePath)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.VirtualMS = ms[0]
	return res, nil
}

// gcReport renders the GC rollup: the collector counts, then the
// latency registry's distributions.
func gcReport(sys *core.System) (string, error) {
	gc, err := sys.GCReport()
	if err != nil {
		return "", err
	}
	hs := sys.VM.H.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "GC report\nscavenges: %d (%d parallel), full collections: %d, max pause %d / %d ticks\n\n",
		hs.Scavenges, hs.ParScavenges, hs.FullCollections,
		int64(hs.ScavengeMaxPause), int64(hs.FullGCMaxPause))
	b.WriteString(gc)
	return b.String(), nil
}

func writeTrace(sys *core.System, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sys.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Format renders the observed run's summary and its reports.
func (r *ObserveResult) Format(w io.Writer) {
	fmt.Fprintf(w, "observed %s on %s: %d virtual ms\n", r.Benchmark, r.State, r.VirtualMS)
	fmt.Fprintf(w, "flight recorder: %d events emitted, %d overwritten by the ring\n",
		r.Metrics.Trace.Events, r.Metrics.Trace.Dropped)
	for _, rep := range []string{r.Profile, r.GCReport, r.AllocProfile} {
		if rep != "" {
			fmt.Fprintf(w, "\n%s", rep)
		}
	}
}
