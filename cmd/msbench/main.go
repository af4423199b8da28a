// Command msbench regenerates every table and figure from the paper's
// evaluation section (Pallas & Ungar, PLDI 1988) and the extensions. It
// measures the report once, prints every section of it (Table 2, Figure
// 2, Table 3, the §3.2/§4 strategy ablations, §3.1 scavenging, the §6
// extensions, the inline-cache, parallel-scavenge, concurrent-marking
// and serve ablations, the mscheck sanitizer), and exits 1 if the
// sanitizer is not clean or the gate fails:
//
//	msbench                    measure and print every section
//	msbench -json results.json also write the report; every leaf is
//	                           exact, so two runs are byte-identical
//	msbench -gate BENCH.json   also require every leaf of the report to
//	                           equal the checked-in baseline's (and the
//	                           concmark pause bound)
//	msbench -lockgraph G.json  also hold the sanitized states' observed
//	                           lock order to msvet -lockgraph's static
//	                           graph
//
// The observed run (flight recorder, profiles, GC report) is mst's:
//
//	mst -busy 4 -trace out.json -profile -allocprofile -gcreport \
//	    -parscavenge -e "MacroBenchmark new run: #printClassHierarchy"
//
// All times are virtual milliseconds on the simulated Firefly; runs are
// deterministic, so msbench prints what its report file prints.
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
	jsonPath := flag.String("json", "", "write the report to this file")
	gatePath := flag.String("gate", "", "fail unless every leaf of the report equals this baseline json's")
	lockgraphPath := flag.String("lockgraph", "", "static lock graph JSON (msvet -lockgraph) to cross-check the sanitized states' acquisition order against")
	flag.Parse()

	// Load the gate's baseline, open the -json output and read the lock
	// graph first: fail on a bad one before spending time measuring.
	var baseline *bench.JSONReport
	if *gatePath != "" {
		var err error
		baseline, err = bench.LoadBaseline(*gatePath)
		check(err)
	}
	var out *os.File
	if *jsonPath != "" {
		var err error
		out, err = os.Create(*jsonPath)
		check(err)
	}
	var staticEdges []string
	if *lockgraphPath != "" {
		data, err := os.ReadFile(*lockgraphPath)
		check(err)
		var g msvet.LockGraphData
		check(json.Unmarshal(data, &g))
		staticEdges = g.EdgeStrings()
	}

	fmt.Fprintln(os.Stderr, "measuring the report...")
	report, err := bench.RunJSONReport(staticEdges)
	check(err)
	fmt.Print(report.Format())
	if out != nil {
		check(report.Write(out))
		check(out.Close())
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
	ok := report.Sanitize.Clean()
	if baseline != nil {
		g := bench.RunGate(baseline, report, *gatePath)
		fmt.Print(g.Format())
		ok = ok && g.OK()
	}
	if !ok {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
}
