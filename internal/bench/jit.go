package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mst/internal/core"
)

// The msjit ablation (msbench -ablation jit): run send-heavy workloads
// twice on identically configured systems — once interpreted, once with
// the template tier on — and report the host-side speedup. Virtual
// times are bit-identical between the tiers by construction (the tier
// charges through the same cost table at the same points), and the
// runner enforces that: any divergence is an error, which makes the
// ablation double as a differential correctness check. The virtual
// columns (virtual ms, compile and deopt counts, compiled-bytecode
// share) are deterministic and ride in the gate and the fingerprint;
// the host nanoseconds and speedups are machine-bound and are zeroed
// in the fingerprint like every other host time.

// JITSpeedupFloor is the minimum acceptable median host speedup of the
// msjit tier over the interpreter on the ablation workloads; the gate
// fails a fresh run below it. Both sides run the same step() switch on
// the same register window (heap.Frame), so the ratio prices exactly
// what the tier adds — superinstruction fusion and activation plans:
// 1.7-1.9x on the loop and ivar kernels, ~1.3x on the send storm, 1.0-1.3x
// on the Table 2 environment macros, where work the two sides share
// bit-for-bit (allocation, scavenges, primitives) dilutes it. The floor
// binds the suite median, 1.33x on a quiet machine (1.29-1.37 over ten
// runs) and down to 1.21x on a loaded one. It stood at 1.5 (median 1.55x,
// failing unchanged code under load) until the register window made the
// denominator faster: push, pop and activation cost both engines the
// same nanoseconds, the interpreter spends a larger share of its time
// there, and so both absolute columns fell while their ratio shrank
// (EXPERIMENTS.md, "The active context is a register window").
const JITSpeedupFloor = 1.1

// jitReps repeats each workload per tier; the host timing takes the
// fastest repetition, and the virtual times of every repetition must
// match between tiers, not just the first.
const jitReps = 7

// jitWorkloads are the ablation's shapes: three Table 2 macro
// benchmarks plus three kernels aimed at the tier's mechanisms — a
// dynamic-dispatch storm (the BenchmarkSendDispatch loop as a macro
// benchmark), a counted-loop integer kernel for the superinstruction
// fuser, and an instance-variable loop for the fused ivar read/write
// paths.
var jitWorkloads = []string{
	"printClassHierarchy",
	"findAllImplementors",
	"decompileClass",
	"sendStorm",
	"intLoops",
	"ivarStorm",
}

// jitStormSource is filed in only by the ablation systems (never by
// the standard bench states, whose boot heaps feed the goldens).
const jitStormSource = `
"Send-dispatch storm for the msjit ablation."!

Object subclass: #JITDispatchProbe
	instanceVariableNames: ''
	category: 'Benchmarks'!

!JITDispatchProbe methodsFor: 'probing'!
one
	^1!
two
	^2!
answerFor: i
	^i \\ 2 = 0 ifTrue: [self one] ifFalse: [self two]! !

Object subclass: #JITCounterProbe
	instanceVariableNames: 'count limit'
	category: 'Benchmarks'!

!JITCounterProbe methodsFor: 'probing'!
reset: n
	count := 0.
	limit := n!
spin
	[count < limit] whileTrue: [count := count + 3 - 2].
	^count! !

!MacroBenchmark methodsFor: 'benchmarks'!
sendStorm
	"A tight loop of dynamically dispatched sends (the
	 BenchmarkSendDispatch shape), hot enough that every method here
	 crosses the compile threshold."
	| r s |
	r := JITDispatchProbe new.
	s := 0.
	1 to: 20000 do: [:i | s := s + r one + r two + (r answerFor: i)].
	^s!
intLoops
	"Straight-line integer arithmetic in nested counted loops — the
	 superinstruction fuser's best case: every body bytecode lands in
	 a fused group."
	| s t |
	s := 0.
	1 to: 200 do: [:i |
		t := 0.
		1 to: 120 do: [:j | t := t + (i * j) - (j // 2)].
		s := s + t - i].
	^s!
ivarStorm
	"Instance-variable reads and writes under an inlined whileTrue —
	 the fused ivar load path plus checked ivar stores."
	| p s |
	p := JITCounterProbe new.
	s := 0.
	1 to: 12 do: [:i |
		p reset: 2000.
		s := s + p spin].
	^s! !
`

// JITRow is one workload measured on both tiers.
type JITRow struct {
	Workload  string  `json:"workload"`
	VirtualMS int64   `json:"virtual_ms"`                  // summed over reps; identical on both tiers
	InterpNS  int64   `json:"interp_host_ns" bench:"host"` // host time, tier off
	JITNS     int64   `json:"jit_host_ns" bench:"host"`    // host time, tier on
	Speedup   float64 `json:"speedup" bench:"host"`        // InterpNS / JITNS
	Compiles  uint64  `json:"jit_compiles"`                // methods compiled during the workload
	Deopts    uint64  `json:"jit_deopts"`                  // bailouts during the workload
	JITShare  float64 `json:"jit_bytecode_share"`          // fraction of bytecodes run compiled
}

// JITReport is the full ablation.
type JITReport struct {
	Rows          []JITRow `json:"rows"`
	MedianSpeedup float64  `json:"median_speedup" bench:"host"`
}

func jitTierSystem(jit bool) (*core.System, error) {
	// The tier runs in its designed configuration — under the inline
	// caches (MSPlus): jitKeep persistence and the megamorphic gate key
	// off per-method IC state, so without ICs every scavenge forces
	// wholesale recompilation and the measurement is mostly compile
	// churn. Both tiers get the identical configuration, so the virtual
	// cross-check below still binds them bit-for-bit.
	cfg := core.MSPlusConfig()
	// One processor: the ablation isolates the mutator's host cost.
	// With the full five, the four idle processors burn identical host
	// time on both tiers and dilute the measured ratio toward 1.
	cfg.Processors = 1
	cfg.JIT = jit
	cfg.ExtraSources = append(cfg.ExtraSources, benchmarkSource, jitStormSource)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: jit ablation boot (jit=%v): %w", jit, err)
	}
	return sys, nil
}

// RunJITAblation measures every workload on both tiers and verifies
// the tiers agree on every virtual time.
func RunJITAblation() (*JITReport, error) {
	isys, err := jitTierSystem(false)
	if err != nil {
		return nil, err
	}
	defer isys.Shutdown()
	jsys, err := jitTierSystem(true)
	if err != nil {
		return nil, err
	}
	defer jsys.Shutdown()

	r := &JITReport{}
	var speedups []float64
	for _, w := range jitWorkloads {
		ibefore := isys.Stats().Interp
		jbefore := jsys.Stats().Interp
		var sum, ihost, jhost int64
		// The repetitions interleave the tiers — rep r runs on the
		// interpreter system, then immediately on the jit system — so
		// slow drift in host speed (frequency scaling, a noisy
		// neighbour) hits both tiers alike instead of biasing whichever
		// tier ran second. Host time is the fastest repetition per
		// tier: the first jit rep carries tier warm-up (hotness
		// counting, template compilation) and any rep can be perturbed
		// by the machine. Every rep's virtual time rides into the tier
		// cross-check, not just the first.
		for rep := 0; rep < jitReps; rep++ {
			t0 := time.Now()
			iv, err := RunMacro(isys, w)
			ins := time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("bench: jit ablation %s (jit=false): %w", w, err)
			}
			t0 = time.Now()
			jv, err := RunMacro(jsys, w)
			jns := time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("bench: jit ablation %s (jit=true): %w", w, err)
			}
			if iv != jv {
				return nil, fmt.Errorf(
					"bench: jit ablation %s rep %d: virtual time diverged — interpreter %d ms, jit %d ms",
					w, rep, iv, jv)
			}
			sum += iv
			if rep == 0 || ins < ihost {
				ihost = ins
			}
			if rep == 0 || jns < jhost {
				jhost = jns
			}
		}
		iafter := isys.Stats().Interp
		jafter := jsys.Stats().Interp
		row := JITRow{
			Workload:  w,
			VirtualMS: sum,
			InterpNS:  ihost,
			JITNS:     jhost,
			Compiles:  jafter.JITCompiles - jbefore.JITCompiles,
			Deopts:    jafter.JITDeopts - jbefore.JITDeopts,
		}
		if row.JITNS > 0 {
			row.Speedup = float64(row.InterpNS) / float64(row.JITNS)
			speedups = append(speedups, row.Speedup)
		}
		if bc := jafter.Bytecodes - jbefore.Bytecodes; bc > 0 {
			row.JITShare = float64(jafter.JITBytecodes-jbefore.JITBytecodes) / float64(bc)
		}
		ic := (iafter.JITCompiles - ibefore.JITCompiles) +
			(iafter.JITDeopts - ibefore.JITDeopts) +
			(iafter.JITBytecodes - ibefore.JITBytecodes)
		if ic != 0 {
			return nil, fmt.Errorf("bench: jit ablation %s: interpreter tier ran jit machinery (%d)", w, ic)
		}
		r.Rows = append(r.Rows, row)
	}
	sort.Float64s(speedups)
	if n := len(speedups); n > 0 {
		r.MedianSpeedup = speedups[n/2]
	}
	return r, nil
}

// Format renders the ablation for terminal output.
func (r *JITReport) Format() string {
	var b strings.Builder
	b.WriteString("msjit ablation: host speedup of the template tier (virtual times bit-identical)\n\n")
	fmt.Fprintf(&b, "%-22s %10s %12s %12s %8s %9s %7s %9s\n",
		"workload", "virt ms", "interp ns", "jit ns", "speedup", "compiles", "deopts", "jit share")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %10d %12d %12d %7.2fx %9d %7d %8.1f%%\n",
			row.Workload, row.VirtualMS, row.InterpNS, row.JITNS, row.Speedup,
			row.Compiles, row.Deopts, 100*row.JITShare)
	}
	fmt.Fprintf(&b, "\nmedian speedup: %.2fx (gate floor %.2fx)\n", r.MedianSpeedup, JITSpeedupFloor)
	return b.String()
}
