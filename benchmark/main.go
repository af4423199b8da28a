// Command benchmark is the repo's host-cost benchmark: six fixed-work
// workloads timed in calibration units from outside the program, direct
// probes of every layer, and a traced run. README.md has the method;
// BENCHMARK.json at the repo root declares the workloads and metrics.
//
//	bash benchmark/run.sh                    all six workloads, end-to-end metrics
//	bash benchmark/run.sh -layers            traced run: per-layer metrics + out/trace.json
//	bash benchmark/run.sh -verify            determinism: fingerprints and exact counts twice
//	bash benchmark/run.sh -repeat 5          repeatability table against the bounds
//	bash benchmark/run.sh --workload macro_uni --seed 7 --seconds 10 --trace 0
//
// The last form is one run of one workload, the unit the driver calls;
// its final line of output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
)

// runSeconds is the length of one measured window, BENCHMARK.json's
// run_seconds.
const runSeconds = 10

type flags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	passes   int
	setups   int
	warmup   int
	layers   bool
	verify   bool
	repeat   int
	manifest bool
	outDir   string
	result   string
	noProbes bool
	probes   bool
	scale    float64
	cpuProf  string
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "run this one workload in-process and print its result as a final JSON line")
	flag.Uint64Var(&f.seed, "seed", 1988, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&f.seconds, "seconds", runSeconds, "length of the measured window of each workload")
	flag.IntVar(&f.trace, "trace", 0, "1: the traced run (spans on, per-layer metrics); 0: end-to-end metrics")
	flag.IntVar(&f.passes, "passes", 0, "run exactly this many passes per workload instead of a timed window")
	flag.IntVar(&f.setups, "setups", 31, "fresh set-ups timed for setup_s (its median is reported)")
	flag.IntVar(&f.warmup, "warmup", 2, "untimed warm-up passes before the window")
	flag.BoolVar(&f.layers, "layers", false, "traced run of every workload plus the layer probes; writes trace.json")
	flag.BoolVar(&f.verify, "verify", false, "run the first three passes of every workload twice and fail on any virtual difference")
	flag.IntVar(&f.repeat, "repeat", 0, "run the whole benchmark N times and print each metric's spread against its bound")
	flag.BoolVar(&f.manifest, "manifest", false, "print BENCHMARK.json as the harness declares it")
	flag.StringVar(&f.outDir, "out", filepath.Join("benchmark", "out"), "directory for result.json and trace.json")
	flag.StringVar(&f.result, "result", "", "with -workload or -probes: also write the full result to this file")
	flag.BoolVar(&f.noProbes, "noprobes", false, "with -trace 1 or -layers: skip the layer probes")
	flag.BoolVar(&f.probes, "probes", false, "run only the layer probes")
	flag.StringVar(&f.cpuProf, "cpuprofile", "", "with -workload: write a CPU profile of the whole run to this file")
	flag.Float64Var(&f.scale, "scale", 1, "probe repetitions relative to the size that fits one driver run")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	var err error
	switch {
	case f.manifest:
		err = printManifest()
	case f.workload != "":
		err = runOne(f)
	case f.probes:
		err = runProbesOnly(f)
	case f.verify:
		err = runVerify(f)
	case f.repeat > 0:
		err = runRepeat(f)
	default:
		_, err = runAll(f, f.seed, true)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// ---- one workload, in this process ----

func runOne(f flags) error {
	w := workloadByName(f.workload)
	if w == nil {
		return fmt.Errorf("no workload %q", f.workload)
	}
	if f.cpuProf != "" {
		pf, err := os.Create(f.cpuProf)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := runWorkload(w, options{
		seed: f.seed, seconds: f.seconds, passes: f.passes,
		setups: max(1, f.setups), warmup: f.warmup,
		trace: f.trace != 0, probes: f.trace != 0 && !f.noProbes, scale: f.scale,
	})
	if err != nil {
		return err
	}
	if res.Traced {
		if !f.noProbes {
			// The driver reads every per-layer metric from every
			// traced run; the ones that do not apply here read 0.
			res.Metrics.fillZero(perLayer)
		}
		if err := os.MkdirAll(f.outDir, 0o755); err != nil {
			return err
		}
		if err := writeChromeTrace(filepath.Join(f.outDir, "trace.json"), res.Spans); err != nil {
			return err
		}
	}
	printResult(res)
	if f.result != "" {
		if err := writeJSON(f.result, res); err != nil {
			return err
		}
	}
	return printFinalLine(res)
}

func runProbesOnly(f flags) error {
	res := &result{Workload: "probes", Traced: true, Correct: true, Attempted: 1, Metrics: metrics{}}
	tr := newTracer("probes")
	if err := runProbes(res.Metrics, newMeter(tr), f.scale); err != nil {
		return err
	}
	res.Spans = tr.spans
	printResult(res)
	if f.result != "" {
		return writeJSON(f.result, res)
	}
	return nil
}

// printResult prints every metric by name with its unit.
func printResult(res *result) {
	fmt.Printf("workload %s  seed %d  traced %v  passes %d  requests %d\n",
		res.Workload, res.Seed, res.Traced, res.Passes, res.Requests)
	if res.Fingerprint != "" {
		fmt.Printf("virt_fingerprint %s\n", res.Fingerprint)
	}
	for _, name := range res.Metrics.names() {
		v := res.Metrics[name]
		fmt.Printf("  %-36s %16.6g %s\n", name, v.Value, v.Unit)
	}
	for _, name := range res.OpCU.names() {
		fmt.Printf("  %-36s %16.6g CU (p50)\n", name, res.OpCU[name].Value)
	}
	fmt.Printf("attempted %d  failed %d\n", res.Attempted, res.Failed)
	for _, line := range res.Fails {
		fmt.Printf("FAIL %s\n", line)
	}
}

// printFinalLine prints the result the way the driver reads it: one
// JSON object with exactly these four keys, as the last line, carrying
// every end-to-end metric of an untraced run or every per-layer metric
// of a traced one (the harness.* context an untraced run also prints
// stays out of it).
func printFinalLine(res *result) error {
	b, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, max(1, res.Attempted), res.Failed, res.declaredMetrics()})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// declaredMetrics is the part of res.Metrics BENCHMARK.json declares
// for this kind of run: end_to_end untraced, per_layer traced.
func (res *result) declaredMetrics() metrics {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	out := metrics{}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ---- every workload, each in its own child process ----

// child re-executes this binary with args, waits for it, and reads the
// result file it wrote. Its output is shown only if it fails.
func child(resultPath string, args ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append(args, "-result", resultPath)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w\n%s", filepath.Base(exe), strings.Join(args, " "), err, out)
	}
	b, err := os.ReadFile(resultPath)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", resultPath, err)
	}
	return &res, nil
}

// runAll runs the six workloads one after another, each in a fresh
// child process so that peak RSS, the Go heap and the scheduler state
// of one cannot leak into the next. Untraced it reports the end-to-end
// metrics; with -layers it is the traced run, followed by the probes.
func runAll(f flags, seed uint64, print bool) (map[string]*result, error) {
	if err := os.MkdirAll(f.outDir, 0o755); err != nil {
		return nil, err
	}
	common := []string{
		"-seed", fmt.Sprint(seed), "-out", f.outDir,
		"-passes", fmt.Sprint(f.passes), "-setups", fmt.Sprint(f.setups), "-warmup", fmt.Sprint(f.warmup),
	}
	results := map[string]*result{}
	var spans []span
	for _, w := range workloads {
		args := append([]string{"-workload", w.name, "-seconds", fmt.Sprint(f.seconds)}, common...)
		if f.layers {
			// A third of the window is enough for the spans and the
			// exact counts (the last -seconds wins); the probes get
			// their own child below.
			args = append(args, "-seconds", fmt.Sprint(f.seconds/3), "-trace", "1", "-noprobes")
		}
		res, err := child(filepath.Join(f.outDir, w.name+".json"), args...)
		if err != nil {
			return nil, err
		}
		results[w.name] = res
		spans = appendSpans(spans, res.Spans)
		res.Spans = nil
		if print {
			printResult(res)
			fmt.Println()
		}
	}
	if f.layers && !f.noProbes {
		res, err := child(filepath.Join(f.outDir, "probes.json"), "-probes", "-scale", fmt.Sprint(3*f.scale))
		if err != nil {
			return nil, err
		}
		results["probes"] = res
		spans = appendSpans(spans, res.Spans)
		res.Spans = nil
		if print {
			printResult(res)
			fmt.Println()
		}
	}
	if f.layers {
		if err := writeChromeTrace(filepath.Join(f.outDir, "trace.json"), spans); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(filepath.Join(f.outDir, "result.json"), results); err != nil {
		return nil, err
	}
	if print {
		printSummary(results, f.layers)
	}
	for _, w := range workloads {
		if res := results[w.name]; !res.Correct {
			return results, fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
	}
	return results, nil
}

// appendSpans adds one child's spans to the merged list, renumbering
// them so IDs stay unique.
func appendSpans(all, more []span) []span {
	base := len(all)
	for _, s := range more {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		all = append(all, s)
	}
	return all
}

// printSummary prints one row per metric, one column per workload.
func printSummary(results map[string]*result, layers bool) {
	defs := endToEnd
	if layers {
		defs = perLayer
	}
	fmt.Printf("%-34s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %12s", w.name)
	}
	fmt.Println()
	for _, d := range defs {
		var row strings.Builder
		found := false
		for _, w := range workloads {
			if v, ok := results[w.name].Metrics[d.name]; ok {
				fmt.Fprintf(&row, " %12.5g", v.Value)
				found = true
			} else {
				fmt.Fprintf(&row, " %12s", "-")
			}
		}
		if found { // otherwise a probe metric: printed with the probes
			fmt.Printf("%-34s %-6s%s\n", d.name, d.unit, row.String())
		}
	}
	if !layers {
		fmt.Printf("%-34s %-6s", "fail_share", "ratio")
		for _, w := range workloads {
			fmt.Printf(" %12.5g", results[w.name].Metrics["harness.fail_share"].Value)
		}
		fmt.Println()
	}
	for _, w := range workloads {
		fmt.Printf("virt_fingerprint %-12s %s\n", w.name, results[w.name].Fingerprint)
	}
}

// ---- -verify ----

// runVerify runs the first three passes of every workload twice, each
// time in a fresh process, and fails on any difference in the
// fingerprint or in an exact per-layer count. This is how a host-only
// change shows it left every simulated statistic identical.
func runVerify(f flags) error {
	f.layers, f.noProbes, f.passes, f.setups, f.warmup = true, true, 3, 1, 0
	var runs [2]map[string]*result
	for i := range runs {
		dir := f
		dir.outDir = filepath.Join(f.outDir, fmt.Sprintf("verify%d", i+1))
		var err error
		if runs[i], err = runAll(dir, f.seed, false); err != nil {
			return err
		}
	}
	bad := 0
	for _, w := range workloads {
		a, b := runs[0][w.name], runs[1][w.name]
		status := "identical"
		if a.Fingerprint != b.Fingerprint {
			status = "DIFFERENT"
			bad++
		}
		fmt.Printf("%-12s virt_fingerprint %s %s\n", w.name, a.Fingerprint, status)
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			if va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value; va != vb {
				fmt.Printf("%-12s %s: %v then %v\n", w.name, d.name, va, vb)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("verify: %d virtual results differ between two runs of the same binary", bad)
	}
	fmt.Println("verify: every fingerprint and exact count identical across two fresh runs")
	return nil
}

// ---- -repeat ----

// runRepeat runs the whole benchmark N times, each with another seed as
// the driver does, and prints for every end-to-end metric × workload
// the minimum, median, maximum and quartile spread against the bound.
func runRepeat(f flags) error {
	values := map[string]map[string][]float64{} // workload → metric → runs
	for i := 0; i < f.repeat; i++ {
		results, err := runAll(f, f.seed+uint64(i), false)
		if err != nil {
			return err
		}
		for _, w := range workloads {
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				values[w.name][d.name] = append(values[w.name][d.name], results[w.name].Metrics[d.name].Value)
			}
		}
		fmt.Fprintf(os.Stderr, "repeat %d/%d done\n", i+1, f.repeat)
	}
	fmt.Printf("| workload | metric | unit | min | median | max | spread | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	over := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w.name][d.name]
			spread := quartileSpread(v)
			mark := ""
			// setup_s is held to its bound on the median only: the
			// contract exempts its spread.
			if spread > d.bound && d.name != "setup_s" {
				mark = " OVER"
				over++
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %.5g | %.3f%s | %.2f |\n",
				w.name, d.name, d.unit, slices.Min(v), median(v), slices.Max(v), spread, mark, d.bound)
		}
	}
	if over > 0 {
		return fmt.Errorf("repeat: %d spreads exceed their bound", over)
	}
	return nil
}

// ---- -manifest ----

// printManifest prints BENCHMARK.json from the harness's own
// declarations, so the file at the repo root cannot drift from them.
func printManifest() error {
	b, err := manifestJSON()
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	man := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		man.Workloads = append(man.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		man.EndToEnd = append(man.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		man.PerLayer = append(man.PerLayer, layer{d.name, d.unit, d.better})
	}
	return json.MarshalIndent(man, "", "  ")
}
