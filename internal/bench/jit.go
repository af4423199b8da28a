package bench

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"mst/internal/core"
)

// The msjit ablation: run send-heavy workloads twice on identically
// configured systems — once interpreted, once with the template tier
// on — and report the host-side speedup. Virtual
// times are bit-identical between the tiers by construction (the tier
// charges through the same cost table at the same points), and the
// runner enforces that: any divergence is an error, which makes the
// ablation double as a differential correctness check. The virtual
// columns (virtual ms, compile and deopt counts, compiled-bytecode
// share) are deterministic and are the report's jit section.
// The host nanoseconds and speedups are machine-bound: they stay off
// the report, and the gate holds only the fresh run's FusionSpeedup to
// the floor. They are the one host timing left in this package.

// JITSpeedupFloor is the minimum acceptable host speedup of the msjit
// tier over the interpreter on the two kernels built for it
// (jitFusionKernels); the gate fails a fresh run below it. Both sides run
// the same step() switch on the same register window and activate through
// the same per-method plans, so the ratio prices exactly what the tier
// adds: superinstruction fusion, alone. That pays where straight-line
// arithmetic and ivar traffic dominate — 1.4-2.1x on intLoops, 1.5-2.1x
// on ivarStorm, the lower of the two 1.41-1.82x over twenty runs on a
// shared box — and nowhere else by design: sendStorm is the control and
// reads about 1.0x, the Table 2 environment macros 0.9-1.3x, so the suite
// median (still reported, median_speedup) hovers near 1.2x and binds
// nothing. The floor stood at 1.5 and then 1.1 on the suite median while
// activation plans were the tier's too; they are every engine's now
// (EXPERIMENTS.md, "One plan per method").
const JITSpeedupFloor = 1.3

// jitFusionKernels are the rows JITSpeedupFloor binds: the lower of
// their speedups is the fresh run's FusionSpeedup.
var jitFusionKernels = []string{"intLoops", "ivarStorm"}

// jitReps repeats each workload per tier; the host timing takes the
// fastest repetition, and the virtual times of every repetition must
// match between tiers, not just the first.
const jitReps = 7

// jitWorkloads are the ablation's shapes: three Table 2 macro
// benchmarks, a dynamic-dispatch storm (the send loop benchmark/'s
// interp.send_ns times, as a macro benchmark) as the control fusion
// cannot help, and the two kernels aimed at the fuser — a counted-loop
// integer kernel and an instance-variable loop for the fused ivar
// read/write paths.
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
	VirtualMS int64   `json:"virtual_ms"`         // summed over reps; identical on both tiers
	InterpNS  int64   `json:"-"`                  // host time, tier off
	JITNS     int64   `json:"-"`                  // host time, tier on
	Speedup   float64 `json:"-"`                  // InterpNS / JITNS
	Compiles  uint64  `json:"jit_compiles"`       // methods compiled during the workload
	Deopts    uint64  `json:"jit_deopts"`         // bailouts during the workload
	JITShare  float64 `json:"jit_bytecode_share"` // fraction of bytecodes run compiled
}

// JITReport is the full ablation.
type JITReport struct {
	Rows          []JITRow `json:"rows"`
	MedianSpeedup float64  `json:"-"`
}

func jitTierSystem(jit bool) (*core.System, error) {
	// The tier runs in its designed configuration — under the inline
	// caches (MSPlus): fused bodies persist on, and the megamorphic gate
	// keys off, per-method IC state, so without ICs every scavenge forces
	// wholesale recompilation and the measurement is mostly compile
	// churn. Both tiers get the identical configuration, so the virtual
	// cross-check below still binds them bit-for-bit.
	cfg := core.MSPlusConfig()
	// One processor: the ablation isolates the mutator's host cost.
	// With the full five, the four idle processors burn identical host
	// time on both tiers and dilute the measured ratio toward 1.
	cfg.Processors = 1
	cfg.JIT = jit
	cfg.ExtraSources = append(cfg.ExtraSources, MacroSource, jitStormSource)
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

// FusionSpeedup is the lower of the fusion kernels' speedups: the number
// JITSpeedupFloor binds.
func (r *JITReport) FusionSpeedup() float64 {
	low := math.Inf(1)
	for _, row := range r.Rows {
		if slices.Contains(jitFusionKernels, row.Workload) {
			low = min(low, row.Speedup)
		}
	}
	return low
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
	fmt.Fprintf(&b, "\nfusion speedup (lower of %s): %.2fx (gate floor %.2fx); suite median speedup: %.2fx\n",
		strings.Join(jitFusionKernels, ", "), r.FusionSpeedup(), JITSpeedupFloor, r.MedianSpeedup)
	return b.String()
}
