package bench

import (
	"fmt"
	"strings"

	"mst/internal/core"
)

// The paper's §6: "we expect to report on our experiences in using
// parallelism in MS, perhaps including some comparisons of various
// concurrent programming approaches." This experiment realizes that
// plan: the same producer/consumer pipeline written in two styles —
// shared state under a mutual-exclusion Semaphore versus message
// passing through SharedQueues — run on the five-processor machine and
// compared on elapsed virtual time and resource contention.

const paradigmsSource = `
"Two implementations of the same job: P producers each push N work items
 (an integer to factor-count) to C consumers; the result is the total
 count of prime factors. Style A shares an OrderedCollection guarded by
 one mutual-exclusion Semaphore; style B connects the Processes with a
 SharedQueue."!

Object subclass: #ParadigmJob
	instanceVariableNames: ''
	category: 'Benchmarks'!

!ParadigmJob methodsFor: 'work'!
factorCount: n
	"The per-item computation: number of prime factors of n."
	| count m d |
	count := 0.
	m := n.
	d := 2.
	[d * d <= m] whileTrue: [
		[m \\ d = 0] whileTrue: [count := count + 1. m := m // d].
		d := d + 1].
	m > 1 ifTrue: [count := count + 1].
	^count! !

!ParadigmJob methodsFor: 'shared state'!
runShared: items
	"Producers append to a shared buffer under a mutex; consumers poll
	 it under the same mutex. Two producers, two consumers."
	| buffer mutex done totals t0 |
	buffer := OrderedCollection new.
	mutex := Semaphore forMutualExclusion.
	done := Semaphore new.
	"One accumulator slot per consumer: Processes must not share an
	 unprotected counter."
	totals := Array with: 0 with: 0.
	t0 := self millisecondClockValue.
	[self produceShared: items into: buffer mutex: mutex. done signal] fork.
	[self produceShared: items into: buffer mutex: mutex. done signal] fork.
	[self consumeShared: items from: buffer mutex: mutex into: totals at: 1. done signal] fork.
	[self consumeShared: items from: buffer mutex: mutex into: totals at: 2. done signal] fork.
	done wait. done wait. done wait. done wait.
	^Array with: (totals at: 1) + (totals at: 2) with: self millisecondClockValue - t0!
produceShared: n into: buffer mutex: mutex
	1 to: n do: [:i |
		mutex critical: [buffer add: i + 100].
		Processor yield]!
consumeShared: n from: buffer mutex: mutex into: totals at: slot
	| got item |
	got := 0.
	[got < n] whileTrue: [
		item := mutex critical: [
			buffer isEmpty ifTrue: [nil] ifFalse: [buffer removeFirst]].
		item isNil
			ifTrue: [Processor yield]
			ifFalse: [
				totals at: slot put: (totals at: slot) + (self factorCount: item).
				got := got + 1]]! !

!ParadigmJob methodsFor: 'message passing'!
runQueued: items
	"The same job connected by a SharedQueue: consumers block instead
	 of polling."
	| q done totals t0 |
	q := SharedQueue new.
	done := Semaphore new.
	totals := Array with: 0 with: 0.
	t0 := self millisecondClockValue.
	[self produceQueued: items into: q. done signal] fork.
	[self produceQueued: items into: q. done signal] fork.
	[self consumeQueued: items from: q into: totals at: 1. done signal] fork.
	[self consumeQueued: items from: q into: totals at: 2. done signal] fork.
	done wait. done wait. done wait. done wait.
	^Array with: (totals at: 1) + (totals at: 2) with: self millisecondClockValue - t0!
produceQueued: n into: q
	1 to: n do: [:i | q nextPut: i + 100]!
consumeQueued: n from: q into: totals at: slot
	1 to: n do: [:i |
		totals at: slot put: (totals at: slot) + (self factorCount: q next)]! !
`

// paradigmItems is the work items each producer pushes.
const paradigmItems = 150

// paradigmStyles are the two implementations: the ParadigmJob selector
// and its label.
var paradigmStyles = []struct{ selector, style string }{
	{"runShared", "shared buffer + mutex (polling)"},
	{"runQueued", "SharedQueue (blocking)"},
}

// ParadigmRow is one style's run: its answer, its elapsed virtual time
// and the scheduling pressure it put on the system.
type ParadigmRow struct {
	Style      string `json:"style"`
	Total      int64  `json:"total"`
	VirtualMS  int64  `json:"virtual_ms"`
	SchedOps   uint64 `json:"sched_lock_acquisitions"`
	SemSignals uint64 `json:"sem_signals"`
}

// ParadigmReport compares the two styles.
type ParadigmReport struct {
	Items int           `json:"items"`
	Rows  []ParadigmRow `json:"rows"`
}

// RunParadigms runs both implementations on fresh five-processor
// systems and reports times plus scheduling pressure.
func RunParadigms() (ParadigmReport, error) {
	r := ParadigmReport{Items: paradigmItems}
	for _, p := range paradigmStyles {
		row, err := runParadigm(p.selector)
		if err != nil {
			return r, err
		}
		row.Style = p.style
		r.Rows = append(r.Rows, row)
	}
	if r.Rows[0].Total != r.Rows[1].Total {
		return r, fmt.Errorf("bench: paradigm results disagree: %d vs %d", r.Rows[0].Total, r.Rows[1].Total)
	}
	return r, nil
}

func runParadigm(selector string) (ParadigmRow, error) {
	var row ParadigmRow
	cfg := core.DefaultConfig()
	cfg.ExtraSources = append(cfg.ExtraSources, paradigmsSource)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return row, err
	}
	defer sys.Shutdown()
	out, err := sys.Evaluate(fmt.Sprintf("ParadigmJob new %s: %d", selector, paradigmItems))
	if err != nil {
		return row, err
	}
	if _, err := fmt.Sscanf(out, "(%d %d )", &row.Total, &row.VirtualMS); err != nil {
		return row, fmt.Errorf("bench: paradigm result %q: %w", out, err)
	}
	st := sys.Stats()
	for _, l := range st.Locks {
		if l.Name == "scheduler" {
			row.SchedOps = l.Acquisitions
		}
	}
	row.SemSignals = st.Interp.SemSignals
	return row, nil
}

// Format renders the comparison.
func (r *ParadigmReport) Format() string {
	var b strings.Builder
	b.WriteString("Concurrent-programming paradigms (extension; paper §6 future work):\n")
	fmt.Fprintf(&b, "2 producers + 2 consumers, %d items each, 5 processors; both styles\n", r.Items)
	fmt.Fprintf(&b, "compute the same answer (%d)\n\n", r.Rows[0].Total)
	fmt.Fprintf(&b, "%-34s %10s %14s %14s\n", "style", "elapsed", "sched-lock acq", "sem signals")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-34s %8dms %14d %14d\n", row.Style, row.VirtualMS, row.SchedOps, row.SemSignals)
	}
	return b.String()
}
