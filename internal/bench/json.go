package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mst/internal/core"
	"mst/internal/trace"
)

// Machine-readable benchmark results (msbench -json): one file captures
// the Table 2 matrix with interpreter counters and host-side wall time,
// plus the inline-cache ablation, so successive PRs leave a comparable
// perf trajectory (BENCH_*.json).

// JSONBench is one benchmark on one state.
type JSONBench struct {
	Name      string `json:"name"`
	VirtualMS int64  `json:"virtual_ms"`
	HostNS    int64  `json:"host_ns" bench:"host"`
}

// JSONState is one system state's results: per-benchmark times plus the
// unified metrics registry snapshot accumulated across the state's full
// run (boot + all benchmarks). The metrics block replaced the ad-hoc
// counters struct in schema msbench/2.
type JSONState struct {
	State   string        `json:"state"`
	Benches []JSONBench   `json:"benches"`
	Metrics trace.Metrics `json:"metrics"`
}

// JSONICRow mirrors ICRow with hit rates precomputed.
type JSONICRow struct {
	State        string  `json:"state"`
	Policy       string  `json:"policy"`
	Benches      []int64 `json:"virtual_ms"`
	ICHitRate    float64 `json:"ic_hit_rate"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	ICFills      uint64  `json:"ic_fills"`
	ICPolySites  uint64  `json:"ic_poly_sites"`
	ICMegaSites  uint64  `json:"ic_mega_sites"`
}

// JSONReport is the full machine-readable result set. SchemaVersion
// tracks trace.MetricsSchemaVersion; Schema is its human-readable twin.
type JSONReport struct {
	Schema        string      `json:"schema"`
	SchemaVersion int         `json:"schemaVersion"`
	Table2        []JSONState `json:"table2"`
	ICBenches     []string    `json:"inline_cache_benches"`
	ICIterations  int         `json:"inline_cache_iterations"`
	InlineCache   []JSONICRow `json:"inline_cache"`
	// Sanitize is additive (schema msbench/3 readers tolerate its
	// absence): the mscheck verdict and host-side checker overhead per
	// state.
	Sanitize *SanitizeReport `json:"sanitize,omitempty"`
	// Parallel is additive too: the -parallel host sweep, present only
	// when it was requested (its wall-clock numbers are machine-bound,
	// so it never participates in the gate or the fingerprint).
	Parallel *ParallelReport `json:"parallel,omitempty" bench:"host"`
	// ParScavenge is the parallel-scavenging ablation. Unlike the host
	// sweep it is virtual-time deterministic, so it rides in the gate
	// and the fingerprint.
	ParScavenge *ParScavReport `json:"parscavenge,omitempty"`
	// JIT is the msjit ablation. Its virtual columns (virtual_ms,
	// compiles, deopts, compiled-bytecode share) are deterministic and
	// ride in the gate and the fingerprint; the host nanoseconds and
	// speedups are zeroed in the fingerprint like every other host time.
	JIT *JITReport `json:"jit,omitempty"`
	// ConcMark is the concurrent-marking ablation. Every column is
	// virtual-time deterministic, so the rows ride in the gate and the
	// fingerprint; the gate additionally holds the fresh run to the
	// pause-bound property (concurrent max pause strictly below the
	// serial one).
	ConcMark *ConcMarkReport `json:"concmark,omitempty"`
	// Serve is the multi-tenant image-server benchmark (cmd/msserve):
	// one open-loop schedule at 1/2/4/8 executors plus the parallel
	// equivalence row. Virtual columns ride the gate and fingerprint.
	Serve *ServeBenchReport `json:"serve,omitempty"`
}

// RunJSONReport measures the Table 2 matrix (virtual ms plus host wall
// time per benchmark, counters per state), the sanitizer twins, and the
// parallel-scavenging, serve, msjit, concurrent-marking and inline-cache
// ablations.
func RunJSONReport() (*JSONReport, error) {
	r := &JSONReport{
		Schema:        fmt.Sprintf("msbench/%d", trace.MetricsSchemaVersion),
		SchemaVersion: trace.MetricsSchemaVersion,
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
			t0 := time.Now()
			ms, err := RunMacro(sys, b.Selector)
			if err != nil {
				sys.Shutdown()
				return nil, fmt.Errorf("bench: json %s/%s: %w", st.Name, b.Selector, err)
			}
			js.Benches = append(js.Benches, JSONBench{
				Name:      b.Selector,
				VirtualMS: ms,
				HostNS:    time.Since(t0).Nanoseconds(),
			})
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
	r.ICBenches = ic.Benches
	r.ICIterations = ic.Iters
	for i := range ic.Rows {
		row := &ic.Rows[i]
		r.InlineCache = append(r.InlineCache, JSONICRow{
			State:        row.State,
			Policy:       row.Policy,
			Benches:      row.Ms,
			ICHitRate:    row.ICHitRate(),
			CacheHitRate: row.CacheHitRate(),
			ICFills:      row.ICFills,
			ICPolySites:  row.ICPolySites,
			ICMegaSites:  row.ICMegaSites,
		})
	}
	return r, nil
}

// Write emits the report as indented JSON.
func (r *JSONReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
