package bench

import (
	"reflect"
	"strings"
	"testing"

	"mst/internal/sanitize"
)

// One state's plain/sanitized pair: clean checker, identical virtual
// times, identical metrics fingerprint (the cheap slice of what
// msbench -sanitize and TestGoldenSanitizeInvariance run in full).
func TestSanitizeRunIdenticalAndClean(t *testing.T) {
	st := StandardStates()[1] // ms
	plainMs, plainFP, _, _, err := sanitizeRun(st, false)
	if err != nil {
		t.Fatal(err)
	}
	checkMs, checkFP, san, _, err := sanitizeRun(st, true)
	if err != nil {
		t.Fatal(err)
	}
	if san == nil {
		t.Fatal("sanitizer did not attach")
	}
	if !san.Clean() {
		t.Errorf("violations on the real workload:\n%s", san.Report())
	}
	if !reflect.DeepEqual(plainMs, checkMs) {
		t.Errorf("virtual times diverge: off=%v on=%v", plainMs, checkMs)
	}
	if diff := sanitize.FingerprintDiff("off", "on", plainFP, checkFP); len(diff) != 0 {
		t.Errorf("metrics diverge: %v", diff)
	}
	if cs := san.Stats(); cs.LockEvents == 0 || cs.AccessChecks == 0 || cs.BarrierScans == 0 {
		t.Errorf("checker did no work: %+v", cs)
	}
}

func TestSanitizeReportFormat(t *testing.T) {
	r := &SanitizeReport{
		Benches: []string{"a"},
		Rows: []SanitizeRow{
			{State: "ms", Identical: true, HostPlainNS: 100, HostCheckNS: 120, OverheadPct: 20},
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
