package bench

import (
	"fmt"
	"testing"

	"mst/internal/core"
)

// checksumSource is a pure computation whose answer is independent of
// scheduling: the parallel host mode must produce the same value the
// deterministic mode does, whatever interleaving the host picked.
const checksumSource = `| s | s := 0. 1 to: 50000 do: [:i | s := (s + (i * 3)) \\ 1000003]. s`

// parallelTotalSteps is the constant amount of work the sweep case
// splits across its workers.
const parallelTotalSteps = 20000

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

// TestParallelCrossCheck runs the standard states in parallel host mode
// across processor counts and cross-checks the workload's invariants
// against a deterministic run of the same configuration: the computed
// value matches exactly; for states whose background Processes send no
// messages the total send count matches exactly too (only the eval
// Process sends); the heap passes its structural walk; and no VM errors
// accumulate. Virtual times are NOT compared — parallel clocks are
// host-schedule-dependent by design.
//
// The scheduler has no same-priority time slicing (a running Process
// keeps its processor), so states with N background Processes need at
// least N+1 processors for the evaluation to run at all; the matrix
// respects that.
//
// One more case runs the fork/join sweep: N SweepWorkers on N
// processors split a fixed number of BusyWorker steps, and both modes
// must produce the closed-form sum of the workers' tokens — a wrong
// interleaving shows up as a wrong sum.
func TestParallelCrossCheck(t *testing.T) {
	type combo struct {
		state State
		procs int
	}
	var combos []combo
	for _, st := range StandardStates() {
		switch st.Name {
		case "baseline":
			combos = append(combos, combo{st, 1})
		case "ms":
			combos = append(combos, combo{st, 2}, combo{st, 4})
		default: // four background Processes: need all five processors
			combos = append(combos, combo{st, 5})
		}
	}
	for _, c := range combos {
		c := c
		t.Run(fmt.Sprintf("%s-procs%d", c.state.Name, c.procs), func(t *testing.T) {
			run := func(parallel bool) (val int64, sends uint64, scavenges uint64) {
				st := c.state.with(func(cfg *core.Config) {
					cfg.Processors = c.procs
					cfg.Parallel = parallel
				})
				_, err := runState(st, []string{"decompileClass"}, func(sys *core.System) (err error) {
					val, err = sys.EvaluateInt(checksumSource)
					if err != nil {
						return err
					}
					// The heap must be structurally sound after the run
					// (CheckInvariants panics on corruption).
					sys.VM.H.CheckInvariants()
					if errs := sys.VM.Errors(); len(errs) != 0 {
						return fmt.Errorf("parallel=%v: VM errors: %v", parallel, errs)
					}
					st2 := sys.Stats()
					sends, scavenges = st2.Interp.Sends, st2.Heap.Scavenges
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return val, sends, scavenges
			}
			detVal, detSends, _ := run(false)
			parVal, parSends, parScav := run(true)
			if parVal != detVal {
				t.Errorf("checksum diverged: deterministic %d, parallel %d", detVal, parVal)
			}
			if c.state.Name != "ms-busy" && parSends != detSends {
				// Busy workers send for as long as the host lets them
				// run; every other state's sends come only from the
				// eval Process and are schedule-independent.
				t.Errorf("sends diverged: deterministic %d, parallel %d", detSends, parSends)
			}
			if c.state.Name == "ms-busy" && parScav == 0 {
				t.Error("ms-busy parallel run never scavenged; the stop-the-world path went unexercised")
			}
		})
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("sweep-procs%d", procs), func(t *testing.T) {
			sum := func(parallel bool) int64 {
				cfg := core.DefaultConfig()
				cfg.Processors = procs
				cfg.Parallel = parallel
				cfg.ExtraSources = append(cfg.ExtraSources, parallelSweepSource)
				sys, err := core.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Shutdown()
				val, err := sys.EvaluateInt(parallelWorkload(procs, parallelTotalSteps/procs))
				if err != nil {
					t.Fatal(err)
				}
				sys.VM.H.CheckInvariants()
				if errs := sys.VM.Errors(); len(errs) != 0 {
					t.Fatalf("parallel=%v: VM errors: %v", parallel, errs)
				}
				return val
			}
			want := parallelWorkloadValue(procs)
			if det, par := sum(false), sum(true); det != want || par != want {
				t.Errorf("workload sum deterministic=%d parallel=%d want=%d", det, par, want)
			}
		})
	}
}
