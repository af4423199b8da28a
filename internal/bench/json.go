package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mst/internal/core"
)

// The report (msbench -json) is everything msbench measures: the Table 2
// matrix with its metrics registries, the sanitizer check, the paper's
// in-text experiments and the extensions. Every leaf is exact — virtual
// times and counters, no host time — so the file is its own determinism
// fingerprint and the gate diffs it whole against the checked-in
// baseline (BENCH_pr10.json). Every table msbench prints is rendered
// from the report alone (Sections), so a baseline file prints the same
// tables as the run that wrote it; only the jit section's host columns
// are not in the file.

// JSONBench is one benchmark on one state.
type JSONBench struct {
	Name      string `json:"name"`
	VirtualMS int64  `json:"virtual_ms"`
}

// JSONState is one system state's results: per-benchmark times plus the
// unified metrics registry snapshot accumulated across the state's full
// run (boot + all benchmarks).
type JSONState struct {
	State   string       `json:"state"`
	Benches []JSONBench  `json:"benches"`
	Metrics core.Metrics `json:"metrics"`
}

// JSONReport is the full machine-readable result set. SchemaVersion
// tracks core.MetricsSchemaVersion; Schema is its human-readable twin.
type JSONReport struct {
	Schema        string      `json:"schema"`
	SchemaVersion int         `json:"schemaVersion"`
	Table2        []JSONState `json:"table2"`
	// ICAblation is the inline-cache ablation, its fields inlined under
	// the inline_cache* keys.
	ICAblation
	// Sanitize is the mscheck verdict and checker work per state.
	Sanitize *SanitizeReport `json:"sanitize,omitempty"`
	// ParScavenge is the parallel-scavenging ablation.
	ParScavenge *ParScavReport `json:"parscavenge,omitempty"`
	// JIT is the msjit ablation: its virtual columns only; the host
	// timings behind the fusion floor stay off the report.
	JIT *JITReport `json:"jit,omitempty"`
	// ConcMark is the concurrent-marking ablation; the gate also holds
	// the fresh run to its pause bound (concurrent max pause strictly
	// below the serial one).
	ConcMark *ConcMarkReport `json:"concmark,omitempty"`
	// Serve is the multi-tenant image-server benchmark (cmd/msserve):
	// one open-loop schedule at 1/2/4/8 executors plus the parallel
	// equivalence row.
	Serve *ServeBenchReport `json:"serve,omitempty"`
	// Strategies is §3.2's and §4's strategy ablations.
	Strategies StrategyReport `json:"strategies"`
	// Scavenge is §3.1's scavenging arithmetic.
	Scavenge []ScavengeRow `json:"scavenge"`
	// Sweep, Paradigms and Micro are the §6 extensions; the contention
	// view reads Table 2's metrics.
	Sweep     []SweepRow     `json:"sweep"`
	Paradigms ParadigmReport `json:"paradigms"`
	Micro     []MicroRow     `json:"micro"`
}

// RunJSONReport measures the report: every section, each configuration
// once. staticEdges, when non-nil (the "a -> b" strings of msvet
// -lockgraph), also holds every sanitized state's observed lock order to
// the static graph.
func RunJSONReport(staticEdges []string) (*JSONReport, error) {
	r := &JSONReport{
		Schema:        fmt.Sprintf("msbench/%d", core.MetricsSchemaVersion),
		SchemaVersion: core.MetricsSchemaVersion,
	}
	var err error
	if r.Table2, err = runTable2(); err != nil {
		return nil, err
	}
	if r.Sanitize, err = RunSanitize(r.Table2, staticEdges); err != nil {
		return nil, err
	}
	if r.ParScavenge, err = RunParScavengeAblation(); err != nil {
		return nil, err
	}
	if r.Serve, err = RunServeBench(); err != nil {
		return nil, err
	}
	if r.JIT, err = RunJITAblation(); err != nil {
		return nil, err
	}
	if r.ConcMark, err = RunConcMarkAblation(); err != nil {
		return nil, err
	}
	ic, err := RunInlineCacheAblation()
	if err != nil {
		return nil, err
	}
	r.ICAblation = *ic
	if r.Strategies, err = RunStrategies(); err != nil {
		return nil, err
	}
	if r.Scavenge, err = RunScavengeExperiment(); err != nil {
		return nil, err
	}
	if r.Sweep, err = RunProcessorSweep(); err != nil {
		return nil, err
	}
	if r.Paradigms, err = RunParadigms(); err != nil {
		return nil, err
	}
	if r.Micro, err = RunMicroSuite(); err != nil {
		return nil, err
	}
	return r, nil
}

// runTable2 runs the eight macro benchmarks on each standard state,
// reproducing the paper's Table 2. The latency histograms ride every
// state, so the metrics carry the pause, dispatch and lock-wait
// buckets the gate pins.
func runTable2() ([]JSONState, error) {
	var rows []JSONState
	for _, st := range StandardStates() {
		js := JSONState{State: st.Name}
		ms, err := runState(st.with(histograms), macroSelectors(), func(sys *core.System) error {
			js.Metrics = sys.Metrics()
			return nil
		})
		if err != nil {
			return nil, err
		}
		for j, v := range ms {
			js.Benches = append(js.Benches, JSONBench{Name: MacroBenchmarks[j].Selector, VirtualMS: v})
		}
		rows = append(rows, js)
	}
	return rows, nil
}

// Sections are the report's printed sections in print order. msbench
// prints every one; EXPERIMENTS.md holds every one but jit, whose host
// columns no report file carries, between markers.
var Sections = []struct {
	Name   string
	Format func(*JSONReport) string
}{
	{"table2", formatTable2},
	{"figure2", formatFigure2},
	{"table3", func(*JSONReport) string { return FormatTable3() }},
	{"strategies", func(r *JSONReport) string { return r.Strategies.Format() }},
	{"scavenge", func(r *JSONReport) string { return formatScavenge(r.Scavenge) }},
	{"sweep", func(r *JSONReport) string { return formatSweep(r.Sweep) }},
	{"contention", formatContention},
	{"paradigms", func(r *JSONReport) string { return r.Paradigms.Format() }},
	{"micro", func(r *JSONReport) string { return formatMicro(r.Micro) }},
	{"inline_cache", func(r *JSONReport) string { return r.ICAblation.Format() }},
	{"parscavenge", func(r *JSONReport) string { return r.ParScavenge.Format() }},
	{"concmark", func(r *JSONReport) string { return r.ConcMark.Format() }},
	{"serve", func(r *JSONReport) string { return r.Serve.Format() }},
	{"jit", func(r *JSONReport) string { return r.JIT.Format() }},
	{"sanitize", func(r *JSONReport) string { return r.Sanitize.Format() }},
}

// Format renders every section, a blank line after each.
func (r *JSONReport) Format() string {
	var b strings.Builder
	for _, s := range Sections {
		b.WriteString(s.Format(r))
		b.WriteString("\n")
	}
	return b.String()
}

// Write emits the report as indented JSON.
func (r *JSONReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
