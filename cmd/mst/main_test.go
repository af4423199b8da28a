package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mst"
	"mst/internal/bench"
)

// mainArgsEnv carries mst's arguments into a re-executed test binary,
// which then runs main instead of the tests.
const mainArgsEnv = "MST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = []string{"mst"}
		if args != "" {
			os.Args = append(os.Args, strings.Split(args, "\x1f")...)
		}
		flag.CommandLine = flag.NewFlagSet("mst", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMST runs mst with args and stdin in a child process, bounded by a
// timeout so that a hang fails the test, and answers its exit code and
// output.
func runMST(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\x1f"))
	var out, errOut bytes.Buffer
	cmd.Stdin, cmd.Stdout, cmd.Stderr = strings.NewReader(stdin), &out, &errOut
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("mst %s did not exit within 60 s", strings.Join(args, " "))
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), out.String(), errOut.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errOut.String()
}

// TestMSTExits: background Processes that would hold every processor are
// refused before anything is evaluated (each never yields, and nothing
// time-slices it against the evaluation at the same priority, so the
// evaluation would never run), one processor fewer runs, and a failed
// evaluation names its cause, exits 1, and kills no interpreter; read
// from stdin, the later lines are still evaluated first. A parse error
// is placed in the user's text, never in the doIt's wrapper (no "]").
// -parallel runs the parallel scavenger to an answer and refuses the
// deterministic-only concurrent marker.
func TestMSTExits(t *testing.T) {
	const starves = "leave none for an evaluation"
	const concPar = "-concmark requires the deterministic mode (drop -parallel)"
	macro := []string{"-parallel", "-procs", "4", "-busy", "2", "-e", "MacroBenchmark new run: #printClassHierarchy"}
	for _, tc := range []struct {
		args   []string
		stdin  string
		code   int
		stdout string // a pattern the whole of stdout matches
		stderr string
	}{
		{[]string{"-baseline", "-idle", "1", "-e", "3+4"}, "", 1, "", starves},
		{[]string{"-procs", "2", "-idle", "2", "-e", "3+4"}, "", 1, "", starves},
		{[]string{"-procs", "2", "-busy", "2", "-e", "3+4"}, "", 1, "", starves},
		{[]string{"-procs", "3", "-idle", "2", "-e", "3+4"}, "", 0, "^7\n$", ""},
		{[]string{"-e", "3 foo"}, "", 1, "", "doesNotUnderstand: #foo sent to 3"},
		{[]string{"-e", "3 ifTrue: [1]"}, "", 1, "", "mustBeBoolean: jump on 3"},
		{[]string{"-e", "3 +"}, "", 1, "", "compile DoIt: 1:4: expected expression, found end of input"},
		{[]string{"-e", "3 + )"}, "", 1, "", `compile DoIt: 1:5: expected expression, found ")"`},
		{nil, "3 + 4\n3 foo\n", 1, "^7\n$", "doesNotUnderstand: #foo sent to 3"},
		{nil, "3 +\n3 + 4\n", 1, "^7\n$", "error:"},
		{nil, "3 + 4\n\n4 * 5\n", 0, "^7\n20\n$", ""},
		{append([]string{"-parscavenge"}, macro...), "", 0, "^[0-9]+\n$", ""},
		{append([]string{"-concmark"}, macro...), "", 1, "^$", concPar},
		{append([]string{"-parscavenge", "-concmark"}, macro...), "", 1, "^$", concPar},
	} {
		name := strings.Join(tc.args, " ")
		if tc.stdin != "" {
			name = fmt.Sprintf("stdin %q", tc.stdin)
		}
		t.Run(name, func(t *testing.T) {
			code, stdout, stderr := runMST(t, tc.stdin, tc.args...)
			if code != tc.code || !regexp.MustCompile(tc.stdout).MatchString(stdout) || !strings.Contains(stderr, tc.stderr) ||
				strings.Contains(stderr, "died") || strings.Contains(stderr, `"]"`) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit %d, stdout matching %q, stderr containing %q",
					code, stdout, stderr, tc.code, tc.stdout, tc.stderr)
			}
		})
	}
}

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
