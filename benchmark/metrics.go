package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these
// names, units and directions (the smoke test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening that is a regression
	exact  bool    // per-layer only: a count that must repeat bit for bit (-verify)
}

// exact declares a per-layer count read from the program's own
// counters; timed declares a per-layer figure the harness clocks.
func exact(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better, exact: true}
}

func timed(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better}
}

// endToEnd are the metrics a user of the system would see; every
// untraced run of every workload reports all of them.
//
// A request is the workload's small interactive unit: one Server.Eval
// on serve_mixed, one canary doIt elsewhere.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "pass_cu_p25", unit: "CU", better: "lower", bound: 0.20},
	{name: "req_mcu_p50", unit: "mCU", better: "lower", bound: 0.20},
	{name: "req_mcu_p99", unit: "mCU", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

// perLayer are the metrics of single layers; every traced run reports
// all of them. A count that does not apply to a workload (serve.* off
// serve_mixed; interp.*, heap.* and firefly.* counts on serve_mixed,
// whose tenant systems cannot be reached from outside) reads 0 there.
var perLayer = []metricDef{
	exact("firefly.switches_per_pass", "count", "lower"),
	exact("firefly.virt_ticks_per_pass", "ticks", "lower"),
	exact("firefly.spin_share", "ratio", "lower"),
	exact("firefly.idle_share", "ratio", "lower"),
	exact("firefly.lock_acquires_per_pass", "count", "lower"),
	exact("firefly.lock_contended_share", "ratio", "lower"),
	timed("firefly.handoff5_ns", "ns", "lower"),
	timed("firefly.handoff1_ns", "ns", "lower"),
	timed("firefly.handoff5_mp_ns", "ns", "lower"),
	timed("firefly.lock_pair_ns", "ns", "lower"),
	timed("firefly.ms5_over_uni", "ratio", "lower"),
	timed("firefly.ms5_mp_over_p1", "ratio", "lower"),
	timed("firefly.busy5_cu_per_kbc", "CU", "lower"),

	exact("interp.bytecodes_per_pass", "count", "lower"),
	exact("interp.sends_per_pass", "count", "lower"),
	exact("interp.prims_per_pass", "count", "lower"),
	exact("interp.cache_hit_share", "ratio", "higher"),
	exact("interp.ic_hit_share", "ratio", "higher"),
	exact("interp.ctx_recycle_share", "ratio", "higher"),
	exact("interp.process_switches_per_pass", "count", "lower"),
	timed("interp.kbc_per_cu", "1/CU", "higher"),
	timed("interp.loop_ns_per_bc", "ns", "lower"),
	timed("interp.send_ns", "ns", "lower"),
	timed("interp.eval_floor_us", "us", "lower"),

	exact("jit.compiled_bc_share", "ratio", "higher"),
	exact("jit.compiles", "count", "lower"),
	exact("jit.deopts", "count", "lower"),
	timed("jit.loop_ns_per_bc", "ns", "lower"),
	timed("jit.send_ns", "ns", "lower"),
	timed("jit.warmup_cu", "CU", "lower"),

	exact("heap.allocs_per_pass", "count", "lower"),
	exact("heap.alloc_words_per_pass", "words", "lower"),
	exact("heap.scavenges_per_pass", "count", "lower"),
	exact("heap.copied_words_per_pass", "words", "lower"),
	exact("heap.tenured_words_per_pass", "words", "lower"),
	exact("heap.store_checks_per_pass", "count", "lower"),
	exact("heap.full_collections_per_pass", "count", "lower"),
	exact("heap.scavenge_vticks_per_pass", "ticks", "lower"),
	exact("heap.fullgc_vticks_per_pass", "ticks", "lower"),
	timed("heap.alloc_ns", "ns", "lower"),
	timed("heap.store_check_ns", "ns", "lower"),
	timed("heap.scavenge_ns_per_word", "ns", "lower"),
	timed("heap.fullgc_ns_per_live_word", "ns", "lower"),
	timed("heap.parscavenge_ns_per_word", "ns", "lower"),
	timed("heap.concmark_ns_per_live_word", "ns", "lower"),

	timed("compiler.expr_us", "us", "lower"),
	timed("compiler.method_us", "us", "lower"),

	timed("image.boot_ms", "ms", "lower"),
	timed("image.snapshot_save_ms", "ms", "lower"),
	timed("image.snapshot_load_ms", "ms", "lower"),
	timed("image.snapshot_kb", "KB", "lower"),

	timed("core.checkpoint_ms", "ms", "lower"),
	timed("core.clone_us", "us", "lower"),

	exact("serve.offered", "count", "higher"),
	exact("serve.completed", "count", "higher"),
	exact("serve.rejected", "count", "lower"),
	exact("serve.virt_latency_p50_ticks", "ticks", "lower"),
	exact("serve.virt_latency_p99_ticks", "ticks", "lower"),
	exact("serve.virt_makespan_ticks", "ticks", "lower"),
	timed("serve.front_us_per_req", "us", "lower"),
	timed("serve.req_per_cu", "1/CU", "higher"),
	timed("serve.loadgen_ns_per_arrival", "ns", "lower"),

	timed("trace.recorder_overhead_share", "ratio", "lower"),
	timed("trace.histograms_overhead_share", "ratio", "lower"),
	timed("trace.profile_overhead_share", "ratio", "lower"),
	timed("sanitize.overhead_share", "ratio", "lower"),
	timed("trace.hist_record_ns", "ns", "lower"),

	timed("gohost.mallocs_per_pass", "count", "lower"),
	timed("gohost.alloc_kb_per_pass", "KB", "lower"),
	timed("gohost.gc_cycles_per_pass", "count", "lower"),
	timed("gohost.goroutines", "count", "lower"),

	timed("harness.calib_ms_p50", "ms", "lower"),
	timed("harness.calib_ms_min", "ms", "lower"),
	timed("harness.pass_ms_p50", "ms", "lower"),
	timed("harness.pass_ms_min", "ms", "lower"),
	timed("harness.pass_cu_p50", "CU", "lower"),
	timed("harness.pass_cu_p95", "CU", "lower"),
	timed("harness.window_s", "s", "lower"),
	timed("harness.samples", "count", "higher"),
	timed("harness.trace_overhead_share", "ratio", "lower"),
	timed("harness.fail_share", "ratio", "lower"),
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

// set records a declared metric. An undeclared name or a value JSON
// cannot carry is a bug in the harness.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("benchmark: metric %s is %v", name, v))
	}
	m[name] = metricValue{Value: v, Unit: unit}
}

// fillZero gives every metric of defs that has no value the value 0.
func (m metrics) fillZero(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0)
		}
	}
}

func (m metrics) names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
