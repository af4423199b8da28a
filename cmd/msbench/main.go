// Command msbench regenerates every table and figure from the paper's
// evaluation section (Pallas & Ungar, PLDI 1988):
//
//	msbench -table2            Table 2: macro benchmarks × system states
//	msbench -figure2           Figure 2: Table 2 normalized, with bars
//	msbench -table3            Table 3: strategy applications
//	msbench -ablation freelist     §3.2: free context list 160% → 65%
//	msbench -ablation methodcache  §3.2: serialized cache "much too slow"
//	msbench -ablation alloc        §4:   replicated allocation areas
//	msbench -ablation scavenge     §3.1: k·s eden scaling, ~3% GC share
//	msbench -ablation inlinecache  extension: send-site MIC/PIC vs method cache
//	msbench -ablation parscavenge  extension: cooperative parallel scavenging
//	                           at 1/2/4/8 simulated processors vs serial
//	msbench -ablation jit      extension: msjit template tier vs interpreter,
//	                           host speedup with bit-identical virtual times
//	msbench -ablation serve    extension: multi-tenant image server under a
//	                           fixed open-loop load at 1/2/4/8 executors,
//	                           throughput and latency percentiles
//	msbench -ablation concmark extension: SATB concurrent old-space marking
//	                           vs the stop-the-world mark-compact over a
//	                           growing live set; the concurrent windows
//	                           stay bounded while the serial pause grows
//	msbench -json results.json     machine-readable Table 2, sanitizer
//	                           twins, and the parscavenge, serve, jit,
//	                           concmark and inline-cache ablations
//	msbench -trace out.json    flight-record one busy benchmark; export
//	                           Chrome trace-event JSON for ui.perfetto.dev
//	msbench -profile           selector-level virtual-time profile of the
//	                           same run (combine with -trace for both)
//	msbench -allocprofile      allocation-site profile of the same run:
//	                           objects/words per Class>>selector, survivor
//	                           and tenure rates, object-age census
//	msbench -gcreport          GC latency rollup of a busy benchmark:
//	                           pause/phase percentiles, dispatch latency,
//	                           lock waits, allocation sites; combine with
//	                           -parscavenge for the critical-path table
//	msbench -sanitize          run every state plain and under the mscheck
//	                           invariant sanitizer; report violations,
//	                           bit-identity, and host-side checker cost;
//	                           add -lockgraph GRAPH.json (the output of
//	                           msvet -lockgraph) to verify the observed
//	                           acquisition order is a subgraph of the
//	                           static lock-order graph
//	msbench -parallel          true-parallel host sweep: the same fixed
//	                           workload on 1..GOMAXPROCS real goroutine
//	                           processors, wall-clock speedup vs the
//	                           deterministic driver
//	msbench -gate BENCH.json   regression gate: rerun the suite and
//	                           require every non-host leaf of the report
//	                           to equal the checked-in baseline's — the
//	                           two fingerprints must match; host cost is
//	                           benchmark/'s job, not the gate's
//	msbench -fingerprint       print the deterministic fingerprint (the
//	                           json report with host times zeroed); CI
//	                           runs it twice and diffs the outputs
//	msbench -all               everything above
//
// All times are virtual milliseconds on the simulated Firefly; runs are
// deterministic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mst/internal/bench"
	"mst/internal/msvet"
)

func main() {
	table2 := flag.Bool("table2", false, "run the Table 2 matrix")
	figure2 := flag.Bool("figure2", false, "run Table 2 and print it normalized (Figure 2)")
	table3 := flag.Bool("table3", false, "print Table 3 (strategy applications)")
	ablation := flag.String("ablation", "", "run one ablation: freelist|methodcache|alloc|scavenge|inlinecache|parscavenge|jit|serve|concmark")
	jsonPath := flag.String("json", "", "write machine-readable results (Table 2 and the ablations) to this file")
	sweep := flag.Bool("sweep", false, "processor sweep (extension: busy overhead vs processor count)")
	micro := flag.Bool("micro", false, "micro benchmark suite (extension: per-operation static costs)")
	paradigms := flag.Bool("paradigms", false, "concurrent-programming style comparison (extension)")
	contention := flag.Bool("contention", false, "per-state lock contention report (extension)")
	tracePath := flag.String("trace", "", "flight-record a busy benchmark and write Perfetto JSON to this file")
	profile := flag.Bool("profile", false, "print the selector-level virtual-time profile of a busy benchmark")
	allocProf := flag.Bool("allocprofile", false, "print the allocation-site profile of a busy benchmark (objects/words per Class>>selector, survivor and tenure rates)")
	gcReport := flag.Bool("gcreport", false, "print the GC latency rollup of a busy benchmark (pause/phase percentiles, lock waits, allocation sites)")
	parScav := flag.Bool("parscavenge", false, "use the cooperative parallel scavenger for the -gcreport run (adds the critical-path table)")
	sanFlag := flag.Bool("sanitize", false, "run every state under the mscheck invariant sanitizer and report overhead")
	lockgraphPath := flag.String("lockgraph", "", "with -sanitize: static lock graph JSON (msvet -lockgraph) to cross-check the observed acquisition order against")
	parallel := flag.Bool("parallel", false, "run the true-parallel host sweep (goroutine processors, wall-clock speedup)")
	gatePath := flag.String("gate", "", "rerun the suite and fail unless every non-host leaf equals this baseline json's")
	fingerprint := flag.Bool("fingerprint", false, "print the deterministic fingerprint (json report, host times zeroed)")
	all := flag.Bool("all", false, "run everything")
	flag.Parse()

	if !*table2 && !*figure2 && !*table3 && *ablation == "" && *jsonPath == "" && !*sweep && !*contention && !*micro && !*paradigms && *tracePath == "" && !*profile && !*allocProf && !*gcReport && !*sanFlag && !*parallel && *gatePath == "" && !*fingerprint && !*all {
		flag.Usage()
		os.Exit(2)
	}

	var t2 *bench.Table2
	needT2 := *table2 || *figure2 || *all
	if needT2 {
		fmt.Fprintln(os.Stderr, "running the four system states × eight macro benchmarks...")
		var err error
		t2, err = bench.RunTable2()
		check(err)
	}
	if *table2 || *all {
		fmt.Println(t2.Format())
	}
	if *figure2 || *all {
		fmt.Println(t2.FormatFigure2())
	}
	if *table3 || *all {
		fmt.Println(bench.FormatTable3())
	}

	runAblation := func(name string) {
		switch name {
		case "freelist":
			a, err := bench.RunFreeListAblation()
			check(err)
			fmt.Println(a.Format())
		case "methodcache":
			a, err := bench.RunMethodCacheAblation()
			check(err)
			fmt.Println(a.Format())
		case "alloc":
			a, err := bench.RunAllocAblation()
			check(err)
			fmt.Println(a.Format())
		case "scavenge":
			rows, err := bench.RunScavengeExperiment()
			check(err)
			fmt.Println(bench.FormatScavenge(rows))
		case "inlinecache":
			a, err := bench.RunInlineCacheAblation()
			check(err)
			fmt.Println(a.Format())
		case "parscavenge":
			a, err := bench.RunParScavengeAblation()
			check(err)
			fmt.Println(bench.FormatParScavenge(a))
		case "jit":
			a, err := bench.RunJITAblation()
			check(err)
			fmt.Println(a.Format())
		case "serve":
			a, err := bench.RunServeBench()
			check(err)
			fmt.Println(a.Format())
		case "concmark":
			a, err := bench.RunConcMarkAblation()
			check(err)
			fmt.Println(bench.FormatConcMark(a))
		default:
			fmt.Fprintf(os.Stderr, "unknown ablation %q\n", name)
			os.Exit(2)
		}
	}
	if *ablation != "" {
		runAblation(*ablation)
	}
	if *all {
		for _, name := range []string{"freelist", "methodcache", "alloc", "scavenge", "inlinecache", "parscavenge", "jit", "serve", "concmark"} {
			fmt.Fprintf(os.Stderr, "running ablation %s...\n", name)
			runAblation(name)
		}
	}
	if *sweep || *all {
		fmt.Fprintln(os.Stderr, "running processor sweep...")
		rows, err := bench.RunProcessorSweep()
		check(err)
		fmt.Println(bench.FormatSweep(rows))
	}
	if *micro || *all {
		fmt.Fprintln(os.Stderr, "running micro suite...")
		r, err := bench.RunMicroSuite()
		check(err)
		fmt.Println(r.Format())
	}
	if *paradigms || *all {
		fmt.Fprintln(os.Stderr, "running paradigm comparison...")
		r, err := bench.RunParadigms()
		check(err)
		fmt.Println(r.Format())
	}
	if *contention || *all {
		fmt.Fprintln(os.Stderr, "running contention report...")
		r, err := bench.RunContentionReport()
		check(err)
		fmt.Println(r.Format())
	}
	if *tracePath != "" || *profile || *allocProf {
		fmt.Fprintln(os.Stderr, "running observed benchmark (flight recorder on)...")
		r, err := bench.RunObserved(*tracePath, *profile, *allocProf)
		check(err)
		r.Format(os.Stdout)
		if *tracePath != "" {
			fmt.Fprintf(os.Stderr, "wrote %s (open in ui.perfetto.dev)\n", *tracePath)
		}
	}
	if *gcReport || *all {
		fmt.Fprintln(os.Stderr, "running gc report (histograms + allocation profiler on)...")
		rep, err := bench.RunGCReport(*parScav)
		check(err)
		fmt.Print(rep)
	}
	if *sanFlag || *all {
		fmt.Fprintln(os.Stderr, "running sanitized states (plain + mscheck each)...")
		var staticEdges []string
		if *lockgraphPath != "" {
			data, err := os.ReadFile(*lockgraphPath)
			check(err)
			var g msvet.LockGraphData
			check(json.Unmarshal(data, &g))
			staticEdges = g.EdgeStrings()
		}
		r, err := bench.RunSanitizeStatic(staticEdges)
		check(err)
		fmt.Println(r.Format())
		if !r.Clean() {
			os.Exit(1)
		}
	}
	var par *bench.ParallelReport
	if *parallel || *all {
		fmt.Fprintln(os.Stderr, "running parallel host sweep (goroutine processors)...")
		var err error
		par, err = bench.RunParallelSweep()
		check(err)
		fmt.Println(bench.FormatParallel(par))
	}

	// -json, -gate, and -fingerprint all need the same fresh report;
	// measure once and reuse it.
	var report, baseline *bench.JSONReport
	if *jsonPath != "" || *gatePath != "" || *fingerprint {
		// Load the baseline first: fail on a bad one before spending
		// time measuring.
		if *gatePath != "" {
			var err error
			baseline, err = bench.LoadBaseline(*gatePath)
			check(err)
		}
		// Open the output first: fail on a bad path before spending
		// time measuring.
		var f *os.File
		if *jsonPath != "" {
			var err error
			f, err = os.Create(*jsonPath)
			check(err)
		}
		fmt.Fprintln(os.Stderr, "running json report...")
		var err error
		report, err = bench.RunJSONReport()
		check(err)
		report.Parallel = par
		if f != nil {
			check(report.Write(f))
			check(f.Close())
			fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
		}
	}
	if *fingerprint {
		check(bench.Fingerprint(report, os.Stdout))
	}
	if baseline != nil {
		g := bench.RunGate(baseline, report, *gatePath)
		fmt.Print(g.Format())
		if !g.OK() {
			os.Exit(1)
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
}
