// Command mst runs Multiprocessor Smalltalk: it boots the image on the
// simulated Firefly, files in any source files given as arguments, and
// evaluates an expression (or reads expressions from stdin, one per
// line).
//
//	mst -e "3 + 4"
//	mst -e "Transcript show: 'hi'" -transcript
//	mst -procs 5 -busy 4 -e "MacroBenchmark..." app.st
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
//	                                 every processor copies survivors
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
)

func main() {
	expr := flag.String("e", "", "expression to evaluate")
	procs := flag.Int("procs", 5, "virtual processors")
	baseline := flag.Bool("baseline", false, "baseline BS mode (no multiprocessor support)")
	msplus := flag.Bool("msplus", false, "MS+ mode: inline caches (PIC) and 2-way method cache")
	ic := flag.String("ic", "", "inline-cache policy: off|mic|pic (overrides config default)")
	idle := flag.Int("idle", 0, "background idle Processes to fork")
	busy := flag.Int("busy", 0, "background busy Processes to fork")
	transcript := flag.Bool("transcript", false, "print the Transcript after evaluation")
	stats := flag.Bool("stats", false, "print system statistics after evaluation")
	tracePath := flag.String("trace", "", "flight-record the run and write Perfetto trace JSON to this file")
	profile := flag.Bool("profile", false, "print the selector-level virtual-time profile after evaluation")
	allocProf := flag.Bool("allocprofile", false, "print the allocation-site profile (objects/words per Class>>selector, survivor and tenure rates, age census) after evaluation")
	gcReport := flag.Bool("gcreport", false, "print the GC latency rollup (pause/phase percentiles, dispatch latency, lock waits, critical paths) after evaluation")
	sanFlag := flag.Bool("sanitize", false, "attach the mscheck invariant sanitizer; report violations and exit non-zero on any")
	parallel := flag.Bool("parallel", false, "true-parallel host mode: run virtual processors on real goroutines (wall-clock scheduling; virtual times become host-schedule-dependent)")
	parScav := flag.Bool("parscavenge", false, "cooperative parallel scavenging: all processors copy survivors during the stop-the-world window (works in both the deterministic and -parallel modes)")
	concMark := flag.Bool("concmark", false, "concurrent old-space marking: full collections run as SATB marking cycles with bounded stop-the-world windows and a lazy free-list sweep (works in both the deterministic and -parallel modes)")
	jitFlag := flag.Bool("jit", false, "msjit tier: fuse hot methods' straight-line bytecode runs into superinstructions (bit-identical virtual behavior)")
	flag.Parse()

	cfg := mst.DefaultConfig()
	if *baseline {
		cfg = mst.BaselineConfig()
	}
	if *msplus {
		cfg = mst.MSPlusConfig()
	}
	cfg.Processors = *procs
	switch *ic {
	case "":
	case "off":
		cfg.InlineCache = mst.ICOff
	case "mic":
		cfg.InlineCache = mst.ICMono
	case "pic":
		cfg.InlineCache = mst.ICPoly
	default:
		fmt.Fprintf(os.Stderr, "mst: unknown -ic policy %q (want off|mic|pic)\n", *ic)
		os.Exit(2)
	}
	if *tracePath != "" {
		cfg.TraceEvents = mst.DefaultTraceEvents
	}
	cfg.Profile = *profile
	cfg.AllocProfile = *allocProf
	cfg.Histograms = *gcReport
	cfg.Sanitize = *sanFlag
	cfg.Parallel = *parallel
	cfg.ParScavenge = *parScav
	cfg.ConcMark = *concMark
	cfg.JIT = *jitFlag
	sys, err := mst.NewSystem(cfg)
	check(err)
	defer sys.Shutdown()

	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		check(err)
		check(sys.FileIn(path, string(src)))
	}
	check(sys.SpawnIdleProcesses(*idle))
	check(sys.SpawnBusyProcesses(*busy))

	eval := func(src string) {
		out, err := sys.Evaluate(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		fmt.Println(out)
	}

	switch {
	case *expr != "":
		eval(*expr)
	case len(flag.Args()) == 0 || stdinPiped():
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			eval(line)
		}
	}

	if *transcript {
		fmt.Print(sys.TranscriptText())
	}
	if *profile {
		rep, err := sys.ProfileReport(25)
		check(err)
		fmt.Fprint(os.Stderr, rep)
	}
	if *allocProf {
		rep, err := sys.AllocProfileReport(10)
		check(err)
		fmt.Fprint(os.Stderr, rep)
	}
	if *gcReport {
		rep, err := sys.GCReport()
		check(err)
		fmt.Fprint(os.Stderr, rep)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		check(err)
		check(sys.WriteTrace(f))
		check(f.Close())
		fmt.Fprintf(os.Stderr, "mst: wrote %s (open in ui.perfetto.dev)\n", *tracePath)
	}
	if *sanFlag {
		rep, err := sys.SanitizeReport()
		check(err)
		fmt.Fprint(os.Stderr, rep)
		if !sys.Sanitizer().Clean() {
			os.Exit(1)
		}
	}
	if *stats {
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
