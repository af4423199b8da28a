package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"mst/internal/trace"
)

// sampleReport is a small synthetic report touching every section the
// gate has to understand: a float leaf, a uint64 above 2^53, omitempty
// sections, nested arrays, and the jit speedup only the floor reads.
func sampleReport() *JSONReport {
	r := &JSONReport{
		Schema:        "msbench/3",
		SchemaVersion: 3,
		Table2: []JSONState{{
			State: "ms",
			Benches: []JSONBench{
				{Name: "printClassDefinition", VirtualMS: 148},
				{Name: "compileMethod", VirtualMS: 310},
			},
		}},
		ICBenches:    []string{"compileMethod"},
		ICIterations: 3,
		InlineCache: []JSONICRow{
			{State: "ms", Policy: "pic", Benches: []int64{300}, ICHitRate: 0.9375, ICFills: 12},
		},
		Sanitize: &SanitizeReport{
			Benches: []string{"compileMethod"},
			Rows: []SanitizeRow{
				{State: "ms", VirtualMS: []int64{310}, Identical: true, LockEvents: 1 << 53},
			},
		},
		JIT: &JITReport{
			Rows: []JITRow{
				{Workload: "intLoops", VirtualMS: 40, Speedup: 2, Compiles: 7, JITShare: 0.8},
			},
		},
		ConcMark: &ConcMarkReport{
			Rows: []ConcMarkRow{{Keep: 1000, FullCollects: 2, SerialMaxPause: 900, ConcMaxPause: 120}},
		},
		Serve: &ServeBenchReport{
			Tenants: 4,
			Seed:    1988,
			Rows: []ServeRow{
				{Executors: 1, Offered: 10, Completed: 10, ThroughputRPS: 12.5,
					Latency: trace.HistSnapshot{Count: 10, Sum: 700, Max: 90, P50: 64}},
			},
			ParallelMatchesDet: true,
		},
	}
	r.Table2[0].Metrics.Interp.Sends = 4242
	r.Table2[0].Metrics.Heap.Scavenges = 3
	return r
}

// A plain tree walk: every scalar leaf of the report's JSON.
func plainLeafCount(t *testing.T, r *JSONReport) int {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		t.Fatal(err)
	}
	var count func(v any) int
	count = func(v any) int {
		n := 0
		switch v := v.(type) {
		case map[string]any:
			for _, sub := range v {
				n += count(sub)
			}
		case []any:
			for _, sub := range v {
				n += count(sub)
			}
		default:
			n = 1
		}
		return n
	}
	return count(tree)
}

func TestGateIdenticalPinsEveryLeaf(t *testing.T) {
	base := sampleReport()
	g := RunGate(base, sampleReport(), "sample.json")
	if !g.OK() {
		t.Fatalf("identical reports fail the gate:\n%s", g.Format())
	}
	if want := plainLeafCount(t, base); g.Exact != want {
		t.Errorf("Exact = %d, plain walk counts %d leaves", g.Exact, want)
	}
	if out := g.Format(); !strings.Contains(out, "PASS") || !strings.Contains(out, "sample.json") {
		t.Errorf("format:\n%s", out)
	}
}

func TestGateFindings(t *testing.T) {
	cases := []struct {
		name   string
		doctor func(base, fresh *JSONReport)
		// exactly: the number of findings, or -1 for "at least one".
		exactly int
		// first must appear in the first finding; all in every finding.
		first, all string
	}{
		{"virtual leaf changed", func(_, f *JSONReport) { f.Table2[0].Benches[1].VirtualMS++ },
			1, "table2[0].benches[1].virtual_ms: baseline=310 fresh=311", ""},
		{"counter deep in the metrics registry", func(_, f *JSONReport) { f.Table2[0].Metrics.Interp.Sends++ },
			1, "table2[0].metrics.interp.sends: baseline=4242 fresh=4243", ""},
		{"float leaf changed", func(_, f *JSONReport) { f.InlineCache[0].ICHitRate = 0.9376 },
			1, "inline_cache[0].ic_hit_rate: baseline=0.9375 fresh=0.9376", ""},
		{"string leaf changed", func(_, f *JSONReport) { f.Table2[0].Benches[0].Name = "renamed" },
			1, `table2[0].benches[0].name: baseline="printClassDefinition" fresh="renamed"`, ""},
		{"bool leaf changed", func(_, f *JSONReport) { f.Serve.ParallelMatchesDet = false },
			1, "serve.parallel_matches_det: baseline=true fresh=false", ""},
		{"uint64s that differ only above 2^53", func(_, f *JSONReport) { f.Sanitize.Rows[0].LockEvents++ },
			1, "sanitize.rows[0].lock_events: baseline=9007199254740992 fresh=9007199254740993", ""},
		{"row removed: the length mismatch leads", func(_, f *JSONReport) { f.Table2[0].Benches = f.Table2[0].Benches[:1] },
			-1, "table2[0].benches[#]: baseline=2 fresh=1", "table2[0].benches["},
		{"section removed", func(_, f *JSONReport) { f.ConcMark = nil },
			-1, "concmark.rows[#]: missing in fresh run", "concmark."},
		{"section the baseline lacks", func(b, _ *JSONReport) { b.JIT = nil },
			-1, "jit.rows[#]: missing in baseline run", "jit."},
		{"key added on the fresh side", func(_, f *JSONReport) { f.Sanitize.Rows[0].Cycles = []string{"a -> b"} },
			2, "sanitize.rows[0].lock_order_cycles[#]: missing in baseline run (fresh=1)", "lock_order_cycles"},
		// The two properties of the fresh run itself: doctoring the
		// baseline identically silences the diff but not the property.
		{"pause bound broken", func(b, f *JSONReport) {
			b.ConcMark.Rows[0].ConcMaxPause = 900
			f.ConcMark.Rows[0].ConcMaxPause = 900
		}, 1, "concmark/keep=1000: pause bound broken", ""},
		{"jit floor missed (a host leaf: only the property sees it)", func(_, f *JSONReport) { f.JIT.Rows[0].Speedup = JITSpeedupFloor - 0.01 },
			1, fmt.Sprintf("jit/fusion_speedup: fused tier %.2fx on its kernels, floor %.2fx", JITSpeedupFloor-0.01, JITSpeedupFloor), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, fresh := sampleReport(), sampleReport()
			c.doctor(base, fresh)
			g := RunGate(base, fresh, "sample.json")
			if g.OK() || (c.exactly >= 0 && len(g.Findings) != c.exactly) {
				t.Fatalf("want %d finding(s) (-1: at least one), got %d: %v", c.exactly, len(g.Findings), g.Findings)
			}
			if !strings.Contains(g.Findings[0], c.first) {
				t.Errorf("first finding %q does not contain %q", g.Findings[0], c.first)
			}
			for _, f := range g.Findings {
				if !strings.Contains(f, c.all) {
					t.Errorf("finding %q does not contain %q", f, c.all)
				}
			}
		})
	}
}

func TestGateFormatCapsFindings(t *testing.T) {
	fresh := sampleReport()
	for i := 0; i < 100; i++ {
		fresh.Sanitize.Benches = append(fresh.Sanitize.Benches, "extra")
	}
	g := RunGate(sampleReport(), fresh, "sample.json")
	out := g.Format()
	if len(g.Findings) != 101 || strings.Count(out, "\n") != 4+maxPrintedFindings+1 ||
		!strings.Contains(out, "FAIL: 101 finding(s)") || !strings.Contains(out, "... and 61 more") {
		t.Errorf("%d findings, format:\n%s", len(g.Findings), out)
	}
}

// The per-section counts sit above the capped list and count what the
// cap hides: property findings under their prefix, leaves under their
// first path element.
func TestGateFormatCountsPerSection(t *testing.T) {
	base, fresh := sampleReport(), sampleReport()
	for i := 0; i < 100; i++ {
		fresh.Sanitize.Benches = append(fresh.Sanitize.Benches, "extra")
	}
	fresh.Serve.Rows[0].Completed++
	fresh.Serve.Rows[0].Latency.P50++
	fresh.Table2[0].Benches[0].VirtualMS++
	base.ConcMark.Rows[0].ConcMaxPause = 900
	fresh.ConcMark.Rows[0].ConcMaxPause = 900
	g := RunGate(base, fresh, "sample.json")
	out := g.Format()
	want := "  by section: concmark: 1, sanitize: 101, serve: 2, table2: 1\n"
	i, j := strings.Index(out, want), strings.Index(out, "    concmark/keep=1000")
	if len(g.Findings) != 105 || i < 0 || j < 0 || i > j {
		t.Errorf("%d findings, want the line %q above the list:\n%s", len(g.Findings), want, out)
	}
}
