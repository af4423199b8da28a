package bench

import (
	"reflect"
	"strings"
	"testing"

	"mst/internal/core"
)

// One state's Table 2 run and its sanitized rerun: clean checker,
// identical virtual times, identical metrics fingerprint (the cheap
// slice of what the report's sanitize section and TestGoldenSanitizeInvariance run
// in full).
func TestSanitizeRunIdenticalAndClean(t *testing.T) {
	st := StandardStates()[1] // ms
	js := JSONState{State: st.Name}
	row, err := runState(st.with(histograms), macroSelectors(), func(sys *core.System) error {
		js.Metrics = sys.Metrics()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, ms := range row {
		js.Benches = append(js.Benches, JSONBench{Name: MacroBenchmarks[j].Selector, VirtualMS: ms})
	}
	r, err := RunSanitize([]JSONState{js}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Rows[0]
	if got.Violations != 0 || len(got.Cycles) != 0 {
		t.Errorf("violations on the real workload: %d, cycles %v", got.Violations, got.Cycles)
	}
	if !got.Identical || !r.Clean() {
		t.Errorf("sanitized run diverges from the Table 2 run: %v", got.Divergences)
	}
	if !reflect.DeepEqual(got.VirtualMS, row) {
		t.Errorf("virtual times: off=%v on=%v", row, got.VirtualMS)
	}
	if got.LockEvents == 0 || got.AccessChecks == 0 || got.BarrierScans == 0 {
		t.Errorf("checker did no work: %+v", got)
	}
}

func TestSanitizeReportFormat(t *testing.T) {
	r := &SanitizeReport{
		Benches: []string{"a"},
		Rows: []SanitizeRow{
			{State: "ms", Identical: true},
		},
	}
	if !r.Clean() {
		t.Error("clean report not Clean()")
	}
	out := r.Format()
	if !strings.Contains(out, "mscheck: clean") {
		t.Errorf("missing clean marker:\n%s", out)
	}
	r.Rows = append(r.Rows, SanitizeRow{
		State:       "ms-busy",
		Divergences: []string{"virtual times: off=[1] on=[2]"},
	})
	if r.Clean() {
		t.Error("divergent report is Clean()")
	}
	if out := r.Format(); !strings.Contains(out, "DIVERGENCE") {
		t.Errorf("missing divergence line:\n%s", out)
	}
}

func TestMetricsFingerprintFlattens(t *testing.T) {
	out := flatten("m", map[string]any{
		"counts": []any{3, 4.5, uint64(1<<63 + 1)},
		"name":   "alloc",
		"on":     true,
		"off":    false,
		"none":   nil,
	})
	want := map[string]string{
		"m.counts[#]": "3",
		"m.counts[0]": "3",
		"m.counts[1]": "4.5",
		"m.counts[2]": "9223372036854775809",
		"m.name":      `"alloc"`,
		"m.on":        "true",
		"m.off":       "false",
		"m.none":      "null",
	}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("flatten = %v, want %v", out, want)
	}
}
