package core

import (
	"testing"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/interp"
)

func smallConfig(mutate func(*Config)) Config {
	c := DefaultConfig()
	c.EdenWords = 16 << 10
	c.SurvivorWords = 4 << 10
	c.OldWords = 2 << 20
	if mutate != nil {
		mutate(&c)
	}
	return c
}

func newSystem(t *testing.T, mutate func(*Config)) *System {
	t.Helper()
	s, err := NewSystem(smallConfig(mutate))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func TestSystemBootsAndEvaluates(t *testing.T) {
	s := newSystem(t, nil)
	got, err := s.Evaluate("(1 to: 10) inject: 0 into: [:a :b | a + b]")
	if err != nil {
		t.Fatal(err)
	}
	if got != "55" {
		t.Fatalf("sum = %q", got)
	}
	if n, err := s.EvaluateInt("6 * 7"); err != nil || n != 42 {
		t.Fatalf("EvaluateInt = %d, %v", n, err)
	}
}

func TestBaselineConfigRejectsMultipleProcessors(t *testing.T) {
	c := BaselineConfig()
	c.Processors = 3
	if _, err := NewSystem(c); err == nil {
		t.Fatal("baseline with 3 processors accepted")
	}
}

func TestNewSystemRejectsWhatCannotRun(t *testing.T) {
	for _, c := range []struct {
		what   string
		mutate func(*Config)
	}{
		{"no processors", func(c *Config) { c.Processors = 0 }},
		{"a 3-way cache", func(c *Config) { c.CacheWays = 3 }},
		{"no old space", func(c *Config) { c.OldWords = 0 }},
		{"an eden too small", func(c *Config) { c.EdenWords = 16 }},
		{"addresses past a uint32", func(c *Config) { c.OldWords = 1 << 32 }},
		{"a parallel profile", func(c *Config) { c.Parallel, c.Profile = true, true }},
	} {
		if _, err := NewSystem(smallConfig(c.mutate)); err == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
}

func TestBaselineSystemRuns(t *testing.T) {
	s := newSystem(t, func(c *Config) {
		c.Mode = ModeBaseline
		c.Processors = 1
	})
	if n, err := s.EvaluateInt("3 + 4"); err != nil || n != 7 {
		t.Fatalf("baseline eval = %d, %v", n, err)
	}
	for _, ls := range s.Stats().Locks {
		if ls.Acquisitions != 0 {
			t.Errorf("lock %q used in baseline mode", ls.Name)
		}
	}
}

func TestIdleProcessesKeepRunning(t *testing.T) {
	s := newSystem(t, nil)
	if err := s.SpawnIdleProcesses(4); err != nil {
		t.Fatal(err)
	}
	if s.BackgroundProcesses() != 4 {
		t.Fatalf("background = %d", s.BackgroundProcesses())
	}
	// Evaluation still works with idle competition, and the idle
	// Processes consume processor time on the other processors.
	if n, err := s.EvaluateInt("| s | s := 0. 1 to: 2000 do: [:i | s := s + i]. s"); err != nil || n != 2001000 {
		t.Fatalf("eval under idle = %d, %v", n, err)
	}
	busyProcs := 0
	for _, ps := range s.Stats().Procs {
		if ps.Busy > 1000 {
			busyProcs++
		}
	}
	if busyProcs < 2 {
		t.Errorf("idle processes did not occupy other processors (busy on %d)", busyProcs)
	}
}

func TestBusyProcessesInterfere(t *testing.T) {
	s := newSystem(t, nil)
	if err := s.SpawnBusyProcesses(2); err != nil {
		t.Fatal(err)
	}
	if n, err := s.EvaluateInt("| s | s := 0. 1 to: 2000 do: [:i | s := s + i]. s"); err != nil || n != 2001000 {
		t.Fatalf("eval under busy = %d, %v", n, err)
	}
	// Busy workers allocate and post to the display.
	if s.VM.Disp.CommandCount() == 0 {
		t.Error("busy workers never touched the display")
	}
	if s.Stats().Heap.Allocations == 0 {
		t.Error("no allocations recorded")
	}
}

func TestStatsAggregation(t *testing.T) {
	s := newSystem(t, nil)
	if _, err := s.EvaluateInt("(Array new: 100) size"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Interp.Bytecodes == 0 || st.Interp.Sends == 0 {
		t.Errorf("interp stats empty: %+v", st.Interp)
	}
	if st.Heap.Allocations == 0 {
		t.Error("heap stats empty")
	}
	if len(st.Procs) != 5 || len(st.Locks) == 0 {
		t.Errorf("procs=%d locks=%d", len(st.Procs), len(st.Locks))
	}
	if s.VirtualTime() == 0 {
		t.Error("virtual time did not advance")
	}
}

func TestAlternativePoliciesBoot(t *testing.T) {
	policies := []func(*Config){
		func(c *Config) { c.MethodCache = interp.CacheSharedLocked },
		func(c *Config) { c.FreeContexts = interp.FreeCtxSharedLocked },
		func(c *Config) { c.Alloc = heap.AllocPerProcessor },
	}
	for i, mutate := range policies {
		s := newSystem(t, mutate)
		if n, err := s.EvaluateInt("| s | s := 0. 1 to: 100 do: [:i | s := s + i]. s"); err != nil || n != 5050 {
			t.Fatalf("policy %d: %d, %v", i, n, err)
		}
		s.Shutdown()
	}
}

func TestExtraSources(t *testing.T) {
	src := `Object subclass: #Greeter
	instanceVariableNames: ''
	category: 'Apps'!

!Greeter methodsFor: 'greeting'!
greet
	^'hello from extra source'! !
`
	s := newSystem(t, func(c *Config) { c.ExtraSources = append(c.ExtraSources, src) })
	got, err := s.Evaluate("Greeter new greet")
	if err != nil {
		t.Fatal(err)
	}
	if got != "'hello from extra source'" {
		t.Fatalf("greet = %q", got)
	}
}

func TestTranscriptCapture(t *testing.T) {
	s := newSystem(t, nil)
	if _, err := s.EvaluateRaw("Transcript show: 'out'"); err != nil {
		t.Fatal(err)
	}
	if s.TranscriptText() != "out" {
		t.Fatalf("transcript = %q", s.TranscriptText())
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() firefly.Time {
		s, err := NewSystem(smallConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		if err := s.SpawnBusyProcesses(2); err != nil {
			t.Fatal(err)
		}
		if _, err := s.EvaluateInt("| s | s := 0. 1 to: 3000 do: [:i | s := s + i]. s"); err != nil {
			t.Fatal(err)
		}
		return s.VirtualTime()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual times differ across identical runs: %v vs %v", a, b)
	}
}
