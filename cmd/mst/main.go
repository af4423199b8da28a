// Command mst runs Multiprocessor Smalltalk: it boots the image msbench
// measures (the kernel plus the macro benchmarks) on the simulated
// Firefly, files in any source files given as arguments, and evaluates
// an expression (or reads expressions from stdin, one per line). It
// exits 1 if any expression fails, once every line has been evaluated.
//
//	mst -e "3 + 4"
//	mst -e "Transcript show: 'hi'" -transcript
//	mst -busy 4 -e "MacroBenchmark new run: #decompileClass" app.st
//	mst -baseline -msplus -jit -e "..."
//	                                 the host-cost benchmark's macro_fast
//	                                 system (macro_uni is -baseline,
//	                                 macro_busy5 -busy 4)
//	mst -trace out.json -e "..."     flight-record the run; open the
//	                                 JSON in ui.perfetto.dev
//	mst -profile -e "..."            selector-level virtual-time profile
//	mst -allocprofile -e "..."       allocation-site profile: objects and
//	                                 words per Class>>selector, survivor
//	                                 and tenure rates, object-age census
//	mst -gcreport -e "..."           GC latency rollup: pause and phase
//	                                 percentiles, dispatch latency, lock
//	                                 waits, scavenge critical paths
//	mst -sanitize -e "..."           run under the mscheck invariant
//	                                 sanitizer; print its report, exit 1
//	                                 on any violation
//	mst -parallel -procs 4 -e "..."  true-parallel host mode: the four
//	                                 virtual processors run on real
//	                                 goroutines (results match, virtual
//	                                 times become schedule-dependent)
//	mst -parscavenge -e "..."        cooperative parallel scavenging:
//	                                 every processor is a copy worker
//	                                 during the stop-the-world window
//	mst -concmark -e "..."           concurrent old-space marking: full
//	                                 collections mark in bounded slices
//	                                 between mutator quanta, with two
//	                                 short stop-the-world windows and a
//	                                 lazy free-list sweep
//	mst -jit -e "..."                msjit tier: hot methods run fused
//	                                 superinstructions (virtual times
//	                                 and results are bit-identical to
//	                                 the interpreter)
//	echo "Smalltalk allClasses size" | mst
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"mst"
	"mst/internal/bench"
)

// options are mst's flags.
type options struct {
	expr, ic, tracePath string
	procs, idle, busy   int

	baseline, msplus, transcript, stats, profile, allocProf, gcReport,
	sanitize, parallel, parScav, concMark, jit bool
}

// parseFlags defines mst's flags on fs and parses args into them.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.expr, "e", "", "expression to evaluate")
	fs.IntVar(&o.procs, "procs", 0, "virtual processors (default: the mode's, 5 for MS and 1 for -baseline)")
	fs.BoolVar(&o.baseline, "baseline", false, "baseline BS mode (no multiprocessor support)")
	fs.BoolVar(&o.msplus, "msplus", false, "MS+ caches on the chosen mode: inline caches (PIC) and 2-way method cache")
	fs.StringVar(&o.ic, "ic", "", "inline-cache policy: off|mic|pic (overrides config default)")
	fs.IntVar(&o.idle, "idle", 0, "background idle Processes to fork")
	fs.IntVar(&o.busy, "busy", 0, "background busy Processes to fork")
	fs.BoolVar(&o.transcript, "transcript", false, "print the Transcript after evaluation")
	fs.BoolVar(&o.stats, "stats", false, "print system statistics after evaluation")
	fs.StringVar(&o.tracePath, "trace", "", "flight-record the run and write Perfetto trace JSON to this file")
	fs.BoolVar(&o.profile, "profile", false, "print the selector-level virtual-time profile after evaluation")
	fs.BoolVar(&o.allocProf, "allocprofile", false, "print the allocation-site profile (objects/words per Class>>selector, survivor and tenure rates, age census) after evaluation")
	fs.BoolVar(&o.gcReport, "gcreport", false, "print the GC latency rollup (pause/phase percentiles, dispatch latency, lock waits, critical paths) after evaluation")
	fs.BoolVar(&o.sanitize, "sanitize", false, "attach the mscheck invariant sanitizer; report violations and exit non-zero on any")
	fs.BoolVar(&o.parallel, "parallel", false, "true-parallel host mode: run virtual processors on real goroutines (wall-clock scheduling; virtual times become host-schedule-dependent)")
	fs.BoolVar(&o.parScav, "parscavenge", false, "cooperative parallel scavenging: every processor is a copy worker during the stop-the-world window, simulated by the processor that stopped it (works in both the deterministic and -parallel modes)")
	fs.BoolVar(&o.concMark, "concmark", false, "concurrent old-space marking: full collections run as SATB marking cycles with bounded stop-the-world windows and a lazy free-list sweep (deterministic mode only: refused with -parallel)")
	fs.BoolVar(&o.jit, "jit", false, "msjit tier: fuse hot methods' straight-line bytecode runs into superinstructions (bit-identical virtual behavior)")
	return o, fs.Parse(args)
}

// config is the system configuration the flags choose, with the macro
// benchmarks filed in after the kernel as bench.NewBenchSystem does.
func (o *options) config() (mst.Config, error) {
	cfg := mst.DefaultConfig()
	if o.baseline {
		cfg = mst.BaselineConfig()
	}
	if o.msplus {
		cfg.InlineCache = mst.ICPoly
		cfg.CacheWays = 2
	}
	if o.procs != 0 {
		cfg.Processors = o.procs
	}
	switch o.ic {
	case "":
	case "off":
		cfg.InlineCache = mst.ICOff
	case "mic":
		cfg.InlineCache = mst.ICMono
	case "pic":
		cfg.InlineCache = mst.ICPoly
	default:
		return cfg, fmt.Errorf("unknown -ic policy %q (want off|mic|pic)", o.ic)
	}
	if o.tracePath != "" {
		cfg.TraceEvents = mst.DefaultTraceEvents
	}
	cfg.Profile = o.profile
	cfg.AllocProfile = o.allocProf
	cfg.Histograms = o.gcReport
	cfg.Sanitize = o.sanitize
	cfg.Parallel = o.parallel
	cfg.ParScavenge = o.parScav
	cfg.ConcMark = o.concMark
	cfg.JIT = o.jit
	cfg.ExtraSources = append(cfg.ExtraSources, bench.MacroSource)
	return cfg, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	check(err)
	cfg, err := o.config()
	check(err)
	sys, err := mst.NewSystem(cfg)
	check(err)
	defer sys.Shutdown()

	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		check(err)
		check(sys.FileIn(path, string(src)))
	}
	check(sys.SpawnIdleProcesses(o.idle))
	check(sys.SpawnBusyProcesses(o.busy))

	eval := func(src string) bool {
		out, err := sys.Evaluate(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Println(out)
		return true
	}

	// A failed evaluation exits 1 once the reports are out.
	failed := false
	switch {
	case o.expr != "":
		failed = !eval(o.expr)
	case len(flag.Args()) == 0 || stdinPiped():
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			if !eval(line) {
				failed = true
			}
		}
	}

	if o.transcript {
		fmt.Print(sys.TranscriptText())
	}
	if o.profile {
		rep, err := sys.ProfileReport(25)
		check(err)
		fmt.Fprint(os.Stderr, rep)
	}
	if o.allocProf {
		rep, err := sys.AllocProfileReport(10)
		check(err)
		fmt.Fprint(os.Stderr, rep)
	}
	if o.gcReport {
		rep, err := sys.GCReport()
		check(err)
		fmt.Fprint(os.Stderr, rep)
	}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		check(err)
		check(sys.WriteTrace(f))
		check(f.Close())
		fmt.Fprintln(os.Stderr, sys.Metrics().Trace)
		fmt.Fprintf(os.Stderr, "mst: wrote %s (open in ui.perfetto.dev)\n", o.tracePath)
	}
	if o.sanitize {
		rep, err := sys.SanitizeReport()
		check(err)
		fmt.Fprint(os.Stderr, rep)
		failed = failed || !sys.Sanitizer().Clean()
	}
	if o.stats {
		st := sys.Stats()
		fmt.Fprintf(os.Stderr, "bytecodes=%d sends=%d cacheHits=%d cacheMisses=%d switches=%d\n",
			st.Interp.Bytecodes, st.Interp.Sends, st.Interp.CacheHits,
			st.Interp.CacheMisses, st.Interp.ProcessSwitches)
		if st.Interp.ICHits+st.Interp.ICMisses > 0 {
			fmt.Fprintf(os.Stderr, "icHits=%d icMisses=%d icFills=%d polySites=%d megaSites=%d\n",
				st.Interp.ICHits, st.Interp.ICMisses, st.Interp.ICFills,
				st.Interp.ICPolySites, st.Interp.ICMegaSites)
		}
		if st.Interp.JITCompiles+st.Interp.JITDeopts+st.Interp.JITBytecodes > 0 {
			fmt.Fprintf(os.Stderr, "jitCompiles=%d jitDeopts=%d jitBytecodes=%d\n",
				st.Interp.JITCompiles, st.Interp.JITDeopts, st.Interp.JITBytecodes)
		}
		fmt.Fprintf(os.Stderr, "allocs=%d scavenges=%d copiedWords=%d virtualTime=%v\n",
			st.Heap.Allocations, st.Heap.Scavenges, st.Heap.CopiedWords, sys.VirtualTime())
		for _, l := range st.Locks {
			if l.Acquisitions > 0 {
				fmt.Fprintf(os.Stderr, "lock %-14s acq=%-8d contended=%-6d spin=%v\n",
					l.Name, l.Acquisitions, l.Contentions, l.SpinTime)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func stdinPiped() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice == 0
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mst:", err)
		os.Exit(1)
	}
}
