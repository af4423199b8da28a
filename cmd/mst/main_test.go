package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"mst"
	"mst/internal/bench"
)

func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("mst", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestFlagsBootEachBenchmarkSystem: mst's flags reach every macro
// workload's system of the host-cost benchmark (benchmark/workloads.go)
// and Table 2's states, macro sources included, and -msplus edits the
// chosen mode instead of replacing it.
func TestFlagsBootEachBenchmarkSystem(t *testing.T) {
	states := bench.StandardStates()
	macros := func(cfg mst.Config) mst.Config {
		cfg.ExtraSources = append(cfg.ExtraSources, bench.MacroSource)
		return cfg
	}
	fast := mst.BaselineConfig()
	fast.JIT = true
	fast.InlineCache = mst.ICPoly
	fast.CacheWays = 2
	msplus := mst.MSPlusConfig()
	msplus.Processors = 3
	for _, tc := range []struct {
		name       string
		args       []string
		want       mst.Config
		idle, busy int
	}{
		{"macro_uni", []string{"-baseline"}, states[0].Config(), 0, 0},
		{"macro_fast", []string{"-baseline", "-msplus", "-jit"}, fast, 0, 0},
		{"macro_ms5", nil, states[1].Config(), 0, 0},
		{"ms-idle", []string{"-idle", "4"}, states[2].Config(), 4, 0},
		{"macro_busy5", []string{"-busy", "4"}, states[3].Config(), 0, 4},
		{"msplus", []string{"-msplus", "-procs", "3"}, msplus, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := parse(t, tc.args...)
			cfg, err := o.config()
			if err != nil {
				t.Fatal(err)
			}
			if want := macros(tc.want); !reflect.DeepEqual(cfg, want) {
				t.Errorf("config\n got %+v\nwant %+v", cfg, want)
			}
			if o.idle != tc.idle || o.busy != tc.busy {
				t.Errorf("background: %d idle, %d busy; want %d, %d", o.idle, o.busy, tc.idle, tc.busy)
			}
		})
	}
	if _, err := parse(t, "-ic", "nope").config(); err == nil {
		t.Error("an unknown -ic policy was accepted")
	}
}

// TestBootRunsTheMacros: the system mst's flags configure answers the
// README's macro benchmark commands, on the baseline's one processor.
func TestBootRunsTheMacros(t *testing.T) {
	cfg, err := parse(t, "-baseline").config()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mst.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	ms, err := sys.EvaluateInt("MacroBenchmark new run: #decompileClass")
	if err != nil || ms <= 0 {
		t.Fatalf("decompileClass answered %d, %v", ms, err)
	}
}
