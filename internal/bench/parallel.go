package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"mst/internal/core"
)

// The parallel host sweep (msbench -parallel): the same fixed workload
// — a pool of sweep-hand-style BusyWorkers splitting a constant number
// of steps — run at increasing processor counts, once under the
// deterministic driver and once with real goroutine processors,
// measuring host wall-clock time. Virtual time answers the paper's
// questions; this sweep answers the host's: does giving the simulated
// processors real cores make the simulation itself faster? Speedup is
// bounded by runtime.NumCPU() — on a single-core host the parallel
// mode can only break even minus synchronization overhead, and the
// report says so rather than pretending otherwise.

// parallelTotalSteps is the constant amount of work split across the
// workers, chosen so one run takes a few hundred host milliseconds —
// long enough to dwarf scheduler noise, short enough for CI.
const parallelTotalSteps = 20000

// ParallelRow is one processor count's measurements.
type ParallelRow struct {
	Procs     int     `json:"procs"`
	Workers   int     `json:"workers"`
	Value     int64   `json:"value"`      // workload checksum; must match Det
	VirtualMS int64   `json:"virtual_ms"` // parallel run's virtual time (schedule-dependent)
	DetWallNS int64   `json:"det_wall_ns"`
	ParWallNS int64   `json:"par_wall_ns"`
	Speedup   float64 `json:"speedup"` // parallel wall at 1 proc / parallel wall here
}

// ParallelReport is the full sweep.
type ParallelReport struct {
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	TotalSteps int           `json:"total_steps"`
	Rows       []ParallelRow `json:"rows"`
	Note       string        `json:"note,omitempty"`
}

// parallelSweepSource defines the sweep's worker: a bounded BusyWorker
// run that deposits a per-worker token in its own Array slot and
// signals. All per-worker state travels through instance variables set
// before the fork — the forked block must not capture temps from an
// enclosing block activation (blocks here have BlueBook semantics:
// contexts are recycled on return, so only the BusyWorker-spawn shape,
// forking from a method context, is safe).
const parallelSweepSource = `
Object subclass: #SweepWorker
	instanceVariableNames: 'steps slot results done'
	category: 'Benchmarks'!

!SweepWorker class methodsFor: 'instance creation'!
steps: n slot: k results: res signal: sem
	| w |
	w := self new.
	w setSteps: n slot: k results: res signal: sem.
	[w run] fork.
	^w! !

!SweepWorker methodsFor: 'running'!
setSteps: n slot: k results: res signal: sem
	steps := n. slot := k. results := res. done := sem!
run
	| w |
	w := BusyWorker new.
	w setTicks.
	1 to: steps do: [:i | w step].
	results at: slot put: (w nudge: slot * 1000).
	done signal! !
`

// parallelWorkload forks workers SweepWorkers, waits for all of them,
// and sums their tokens. The sum is independent of scheduling, so the
// deterministic and parallel runs must agree on it exactly.
func parallelWorkload(workers, steps int) string {
	return fmt.Sprintf(`| done res total |
done := Semaphore new.
res := Array new: %d.
1 to: %d do: [:k | SweepWorker steps: %d slot: k results: res signal: done].
1 to: %d do: [:i | done wait].
total := 0.
1 to: %d do: [:k | total := total + (res at: k)].
total`, workers, workers, steps, workers, workers)
}

// parallelWorkloadValue is the sum the workload must produce for a
// given worker count: sum over k of k*1000 + 1.
func parallelWorkloadValue(workers int) int64 {
	return int64(workers)*(int64(workers)+1)/2*1000 + int64(workers)
}

// runParallelOnce boots one system and times the workload.
func runParallelOnce(procs, workers, steps int, parallel bool) (val int64, virtualMS int64, wall int64, err error) {
	cfg := core.DefaultConfig()
	cfg.Processors = procs
	cfg.Parallel = parallel
	cfg.ExtraSources = append(cfg.ExtraSources, parallelSweepSource)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bench: parallel boot (procs=%d parallel=%v): %w", procs, parallel, err)
	}
	defer sys.Shutdown()
	t0 := time.Now()
	val, err = sys.EvaluateInt(parallelWorkload(workers, steps))
	wall = time.Since(t0).Nanoseconds()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bench: parallel workload (procs=%d parallel=%v): %w", procs, parallel, err)
	}
	sys.VM.H.CheckInvariants()
	if errs := sys.VM.Errors(); len(errs) != 0 {
		return 0, 0, 0, fmt.Errorf("bench: parallel run (procs=%d parallel=%v): VM errors: %v", procs, parallel, errs)
	}
	return val, int64(sys.VirtualTime()) / 1000, wall, nil
}

// sweepProcCounts returns the processor counts to measure: 1, 2, 4,
// then GOMAXPROCS if larger. The small counts always run so the
// parallel machinery is exercised even on small hosts.
func sweepProcCounts() []int {
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		counts = append(counts, g)
	}
	return counts
}

// RunParallelSweep measures the sweep. Each row cross-checks the
// parallel run's workload value against the deterministic run's (and
// both against the closed form) — a wrong interleaving shows up as a
// wrong sum, not just a slow one.
func RunParallelSweep() (*ParallelReport, error) {
	r := &ParallelReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TotalSteps: parallelTotalSteps,
	}
	if r.NumCPU == 1 {
		r.Note = "single-CPU host: goroutine processors time-share one core, so speedup ~1.0 is the physical ceiling"
	}
	var base int64
	for _, procs := range sweepProcCounts() {
		workers := procs
		steps := parallelTotalSteps / workers
		want := parallelWorkloadValue(workers)

		detVal, _, detWall, err := runParallelOnce(procs, workers, steps, false)
		if err != nil {
			return nil, err
		}
		parVal, virtMS, parWall, err := runParallelOnce(procs, workers, steps, true)
		if err != nil {
			return nil, err
		}
		if detVal != want || parVal != want {
			return nil, fmt.Errorf("bench: parallel sweep procs=%d: workload sum deterministic=%d parallel=%d want=%d",
				procs, detVal, parVal, want)
		}
		if base == 0 {
			base = parWall
		}
		row := ParallelRow{
			Procs:     procs,
			Workers:   workers,
			Value:     parVal,
			VirtualMS: virtMS,
			DetWallNS: detWall,
			ParWallNS: parWall,
		}
		if parWall > 0 {
			row.Speedup = float64(base) / float64(parWall)
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// FormatParallel renders the sweep for terminal output.
func FormatParallel(r *ParallelReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel host sweep: %d BusyWorker steps split across N workers on N processors\n",
		r.TotalSteps)
	fmt.Fprintf(&b, "(host: %d CPU, GOMAXPROCS %d)\n\n", r.NumCPU, r.GOMAXPROCS)
	fmt.Fprintf(&b, "%6s %8s %12s %12s %12s %8s\n",
		"procs", "workers", "det wall ms", "par wall ms", "virtual ms", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %8d %12.1f %12.1f %12d %7.2fx\n",
			row.Procs, row.Workers,
			float64(row.DetWallNS)/1e6, float64(row.ParWallNS)/1e6,
			row.VirtualMS, row.Speedup)
	}
	if r.Note != "" {
		fmt.Fprintf(&b, "\nnote: %s\n", r.Note)
	}
	return b.String()
}
