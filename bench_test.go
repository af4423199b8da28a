// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the in-text experiments. Each reports its
// measured *virtual* milliseconds as the custom metric "vms" (the
// simulated Firefly's clock; deterministic), alongside Go's host-time
// metrics for the simulator itself.
//
//	go test -bench=Table2 -benchmem .
//	go test -bench=. -benchmem .
package mst_test

import (
	"fmt"
	"testing"

	"mst/internal/bench"
	"mst/internal/core"
	"mst/internal/heap"
	"mst/internal/interp"
)

// benchSystem boots one system for a state, failing the benchmark on
// error.
func benchSystem(b *testing.B, st bench.State) *core.System {
	b.Helper()
	sys, err := bench.NewBenchSystem(st)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Shutdown)
	return sys
}

// BenchmarkTable2 reproduces Table 2: every macro benchmark under every
// system state. The "vms" metric is the virtual time the paper's table
// reports (in virtual milliseconds).
func BenchmarkTable2(b *testing.B) {
	for _, st := range bench.StandardStates() {
		st := st
		b.Run(st.Name, func(b *testing.B) {
			sys := benchSystem(b, st)
			for _, mb := range bench.MacroBenchmarks {
				mb := mb
				b.Run(mb.Selector, func(b *testing.B) {
					var total int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ms, err := bench.RunMacro(sys, mb.Selector)
						if err != nil {
							b.Fatal(err)
						}
						total += ms
					}
					b.ReportMetric(float64(total)/float64(b.N), "vms")
				})
			}
		})
	}
}

// BenchmarkFigure2 reproduces Figure 2: the normalized overhead of each
// non-baseline state on one representative benchmark, reported as the
// metric "norm" (time / baseline time).
func BenchmarkFigure2(b *testing.B) {
	const probe = "printClassHierarchy"
	baselineSys := benchSystem(b, bench.StandardStates()[0])
	// Warm once, then measure: repeated runs settle as caches fill and
	// data tenures, and the comparison must be warm-to-warm.
	if _, err := bench.RunMacro(baselineSys, probe); err != nil {
		b.Fatal(err)
	}
	base, err := bench.RunMacro(baselineSys, probe)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range bench.StandardStates()[1:] {
		st := st
		b.Run(st.Name, func(b *testing.B) {
			sys := benchSystem(b, st)
			if _, err := bench.RunMacro(sys, probe); err != nil {
				b.Fatal(err)
			}
			var norm float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := bench.RunMacro(sys, probe)
				if err != nil {
					b.Fatal(err)
				}
				norm = float64(ms) / float64(base)
			}
			b.ReportMetric(norm, "norm")
		})
	}
}

// BenchmarkFreeContextList reproduces the §3.2 claim (worst-case
// overhead 160% serialized vs 65% replicated): the same busy-state
// benchmark under the two free-context-list policies.
func BenchmarkFreeContextList(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		policy interp.FreeCtxPolicy
	}{
		{"SharedLocked", interp.FreeCtxSharedLocked},
		{"Replicated", interp.FreeCtxPerProcessor},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			st := bench.State{
				Name: "busy-" + cfg.name,
				Config: func() core.Config {
					c := core.DefaultConfig()
					c.FreeContexts = cfg.policy
					return c
				},
				Background: func(s *core.System) error { return s.SpawnBusyProcesses(4) },
			}
			sys := benchSystem(b, st)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := bench.RunMacro(sys, "printClassHierarchy")
				if err != nil {
					b.Fatal(err)
				}
				total += ms
			}
			b.ReportMetric(float64(total)/float64(b.N), "vms")
		})
	}
}

// BenchmarkMethodCache reproduces the §3.2 claim that the serialized
// shared cache made MS run "much too slowly" until replicated.
func BenchmarkMethodCache(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		policy interp.CachePolicy
	}{
		{"SharedLocked", interp.CacheSharedLocked},
		{"Replicated", interp.CacheReplicated},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			st := bench.State{
				Name: "busy-" + cfg.name,
				Config: func() core.Config {
					c := core.DefaultConfig()
					c.MethodCache = cfg.policy
					return c
				},
				Background: func(s *core.System) error { return s.SpawnBusyProcesses(4) },
			}
			sys := benchSystem(b, st)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := bench.RunMacro(sys, "findAllImplementors")
				if err != nil {
					b.Fatal(err)
				}
				total += ms
			}
			b.ReportMetric(float64(total)/float64(b.N), "vms")
		})
	}
}

// BenchmarkAllocPolicy measures the paper's §4 future-work hypothesis:
// replicating the allocation areas relieves allocation contention under
// busy competition.
func BenchmarkAllocPolicy(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		policy heap.AllocPolicy
	}{
		{"Serialized", heap.AllocSerialized},
		{"PerProcessor", heap.AllocPerProcessor},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			st := bench.State{
				Name: "busy-" + cfg.name,
				Config: func() core.Config {
					c := core.DefaultConfig()
					c.Alloc = cfg.policy
					return c
				},
				Background: func(s *core.System) error { return s.SpawnBusyProcesses(4) },
			}
			sys := benchSystem(b, st)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := bench.RunMacro(sys, "createInspectorView")
				if err != nil {
					b.Fatal(err)
				}
				total += ms
			}
			b.ReportMetric(float64(total)/float64(b.N), "vms")
		})
	}
}

// BenchmarkScavenge reproduces the §3.1 scavenging arithmetic: with
// eden scaled as k·s, the per-benchmark scavenge count stays roughly
// constant as processors are added; reported as metrics "scavenges" and
// "gcshare%". ns/op grows with k because the state has k-1 busy
// background Processes: "bytecodes/op" is the work all k interpreters
// did per iteration, the denominator ns/op needs (EXPERIMENTS.md).
func BenchmarkScavenge(b *testing.B) {
	for k := 1; k <= 5; k++ {
		k := k
		b.Run(fmt.Sprintf("procs-%d", k), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Processors = k
			cfg.EdenWords = (8 << 10) * k
			cfg.SurvivorWords = (2 << 10) * k
			st := bench.State{
				Name:   fmt.Sprintf("scavenge-%d", k),
				Config: func() core.Config { return cfg },
				Background: func(s *core.System) error {
					return s.SpawnBusyProcesses(k - 1)
				},
			}
			sys := benchSystem(b, st)
			var scav uint64
			var share float64
			bytecodes := sys.Stats().Interp.Bytecodes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := sys.Stats().Heap
				elapsed, err := sys.EvaluateInt(
					"| t0 s | t0 := self millisecondClockValue. s := 0. " +
						"1 to: 30000 do: [:i | s := s + (i bitAnd: 255). " +
						"i \\\\ 10 = 0 ifTrue: [(Array new: 8) at: 1 put: i]]. " +
						"self millisecondClockValue - t0")
				if err != nil {
					b.Fatal(err)
				}
				after := sys.Stats().Heap
				scav = after.Scavenges - before.Scavenges
				if elapsed > 0 {
					share = float64(after.ScavengeTime-before.ScavengeTime) /
						float64(elapsed) / 1000 * 100
				}
			}
			b.ReportMetric(float64(scav), "scavenges")
			b.ReportMetric(share, "gcshare%")
			b.ReportMetric(float64(sys.Stats().Interp.Bytecodes-bytecodes)/float64(b.N), "bytecodes/op")
		})
	}
}
