package bench

import (
	"fmt"
	"strings"

	"mst/internal/core"
)

// microSource defines analogues of the McCall *micro* benchmarks (the
// other half of the standard Smalltalk-80 benchmark suite; the paper
// uses only the macros, so these are an extension for calibrating the
// interpreter's primitive operations).
const microSource = `
Object subclass: #MicroBenchmark
	instanceVariableNames: 'ivar'
	category: 'Benchmarks'!

!MicroBenchmark methodsFor: 'running'!
run: aSymbol
	| t0 |
	t0 := self millisecondClockValue.
	self perform: aSymbol.
	^self millisecondClockValue - t0! !

!MicroBenchmark methodsFor: 'micro'!
testAdd
	| s |
	s := 0.
	1 to: 30000 do: [:i | s := s + 1]!
testLoadInstVar
	| s |
	ivar := 17.
	s := 0.
	1 to: 30000 do: [:i | s := ivar]!
testSend
	1 to: 15000 do: [:i | self probe]!
probe
	^nil!
testWhileLoop
	| i |
	i := 0.
	[i < 30000] whileTrue: [i := i + 1]!
testArrayAt
	| a s |
	a := Array new: 100.
	1 to: 100 do: [:i | a at: i put: i].
	s := 0.
	1 to: 300 do: [:k | 1 to: 100 do: [:i | s := s + (a at: i)]]!
testArrayAtPut
	| a |
	a := Array new: 100.
	1 to: 300 do: [:k | 1 to: 100 do: [:i | a at: i put: i]]!
testStringReplace
	| a b |
	a := String new: 200.
	b := String new: 200.
	1 to: 200 do: [:i | b at: i put: $x].
	1 to: 500 do: [:k |
		a replaceFrom: 1 to: 200 with: b startingAt: 1]!
testDictionaryAtPut
	| d |
	d := Dictionary new.
	1 to: 60 do: [:i | d at: i put: i].
	1 to: 100 do: [:k | 1 to: 60 do: [:i | d at: i put: i + k]]!
testCreation
	1 to: 8000 do: [:i | Array new: 8]!
testBlockValue
	| b s |
	b := [:x | x + 1].
	s := 0.
	1 to: 10000 do: [:i | s := b value: s]!
testHanoi
	self hanoi: 12 from: 1 to: 3 via: 2!
hanoi: n from: a to: c via: b
	n = 0 ifTrue: [^self].
	self hanoi: n - 1 from: a to: b via: c.
	self hanoi: n - 1 from: b to: c via: a!
testStringCompare
	| a b s |
	a := 'the quick brown fox jumps over the lazy dog'.
	b := 'the quick brown fox jumps over the lazy dot'.
	s := 0.
	1 to: 2000 do: [:i | (a < b) ifTrue: [s := s + 1]]! !
`

// MicroBenchmarks lists the micro suite in display order.
var MicroBenchmarks = []string{
	"testAdd", "testLoadInstVar", "testSend", "testWhileLoop",
	"testArrayAt", "testArrayAtPut", "testStringReplace",
	"testDictionaryAtPut", "testCreation", "testBlockValue",
	"testHanoi", "testStringCompare",
}

// MicroRow is one micro benchmark under baseline BS and MS, in virtual
// milliseconds.
type MicroRow struct {
	Name              string `json:"name"`
	BaselineVirtualMS int64  `json:"baseline_virtual_ms"`
	MSVirtualMS       int64  `json:"ms_virtual_ms"`
}

// RunMicroSuite measures every micro benchmark under baseline BS and
// uniprocessor-competition-free MS, exposing the static cost of the
// multiprocessor support per operation class.
func RunMicroSuite() ([]MicroRow, error) {
	rows := make([]MicroRow, len(MicroBenchmarks))
	for i, st := range StandardStates()[:2] {
		cfg := st.Config()
		cfg.ExtraSources = append(cfg.ExtraSources, microSource)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		for j, name := range MicroBenchmarks {
			ms, err := sys.EvaluateInt(fmt.Sprintf("MicroBenchmark new run: #%s", name))
			if err != nil {
				sys.Shutdown()
				return nil, fmt.Errorf("bench: micro %s: %w", name, err)
			}
			rows[j].Name = name
			if i == 0 {
				rows[j].BaselineVirtualMS = ms
			} else {
				rows[j].MSVirtualMS = ms
			}
		}
		sys.Shutdown()
	}
	return rows, nil
}

// formatMicro renders the micro suite comparison.
func formatMicro(rows []MicroRow) string {
	var b strings.Builder
	b.WriteString("Micro benchmarks (extension: the McCall suite's other half):\n")
	b.WriteString("per-operation-class static cost of the multiprocessor support\n\n")
	fmt.Fprintf(&b, "%-22s %12s %12s %10s\n", "benchmark", "baseline", "MS", "overhead")
	for _, r := range rows {
		over := float64(r.MSVirtualMS)/float64(r.BaselineVirtualMS) - 1
		fmt.Fprintf(&b, "%-22s %10dms %10dms %9.0f%%\n", r.Name, r.BaselineVirtualMS, r.MSVirtualMS, over*100)
	}
	return b.String()
}
