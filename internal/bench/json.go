package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"mst/internal/core"
)

// Machine-readable benchmark results (msbench -json): one file captures
// the Table 2 matrix with its metrics registries, the sanitizer twins
// and the ablations. Every leaf is exact — virtual times and counters,
// no host time — so the file is its own determinism fingerprint and the
// gate diffs it whole against the checked-in baseline (BENCH_pr10.json).

// JSONBench is one benchmark on one state.
type JSONBench struct {
	Name      string `json:"name"`
	VirtualMS int64  `json:"virtual_ms"`
}

// JSONState is one system state's results: per-benchmark times plus the
// unified metrics registry snapshot accumulated across the state's full
// run (boot + all benchmarks). The metrics block replaced the ad-hoc
// counters struct in schema msbench/2.
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
	// Sanitize is additive (schema msbench/3 readers tolerate its
	// absence): the mscheck verdict and checker work per state.
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
}

// RunJSONReport measures the Table 2 matrix (virtual ms per benchmark,
// metrics per state), the sanitizer twins, and the
// parallel-scavenging, serve, msjit, concurrent-marking and inline-cache
// ablations.
func RunJSONReport() (*JSONReport, error) {
	r := &JSONReport{
		Schema:        fmt.Sprintf("msbench/%d", core.MetricsSchemaVersion),
		SchemaVersion: core.MetricsSchemaVersion,
	}
	for _, st := range StandardStates() {
		// The latency registry rides every standard state: histograms
		// are pure observation (TestGoldenHistogramInvariance), so the
		// Table 2 numbers are unchanged and the gate can pin the pause,
		// dispatch, and lock-wait bucket counts exactly.
		base := st.Config
		st.Config = func() core.Config {
			cfg := base()
			cfg.Histograms = true
			return cfg
		}
		sys, err := NewBenchSystem(st)
		if err != nil {
			return nil, err
		}
		js := JSONState{State: st.Name}
		for _, b := range MacroBenchmarks {
			ms, err := RunMacro(sys, b.Selector)
			if err != nil {
				sys.Shutdown()
				return nil, fmt.Errorf("bench: json %s/%s: %w", st.Name, b.Selector, err)
			}
			js.Benches = append(js.Benches, JSONBench{Name: b.Selector, VirtualMS: ms})
		}
		js.Metrics = sys.Metrics()
		sys.Shutdown()
		r.Table2 = append(r.Table2, js)
	}

	san, err := RunSanitize()
	if err != nil {
		return nil, err
	}
	r.Sanitize = san

	ps, err := RunParScavengeAblation()
	if err != nil {
		return nil, err
	}
	r.ParScavenge = ps

	sv, err := RunServeBench()
	if err != nil {
		return nil, err
	}
	r.Serve = sv

	jr, err := RunJITAblation()
	if err != nil {
		return nil, err
	}
	r.JIT = jr

	cr, err := RunConcMarkAblation()
	if err != nil {
		return nil, err
	}
	r.ConcMark = cr

	ic, err := RunInlineCacheAblation()
	if err != nil {
		return nil, err
	}
	r.ICAblation = *ic
	return r, nil
}

// Write emits the report as indented JSON.
func (r *JSONReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
