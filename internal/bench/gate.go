package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"

	"mst/internal/sanitize"
)

// The benchmark-regression gate (msbench -gate) is one rule: a fresh run
// passes iff its fingerprint equals the fingerprint of the checked-in
// baseline report (BENCH_prN.json). The simulator is deterministic, so
// every leaf of the report that is not a host-side measurement — virtual
// times, interpreter and heap counters, histogram buckets, every
// ablation column — must match the baseline EXACTLY; any drift is either
// a real change (update the baseline deliberately, in the same commit)
// or a bug. Both reports are flattened to leaf path → JSON literal and
// diffed by the comparison the sanitizer's twin runs use
// (sanitize.FingerprintDiff), so a new report section is gated the
// moment it exists.
//
// Which leaves are host-side is declared once, on the report types, by
// the struct tag `bench:"host"`; eachHost is the one walk that reads it,
// for the gate (which drops those leaves) and for Fingerprint (which
// zeroes them). Host cost is not gated here at all: wall time does not
// compare across machines, and benchmark/ measures it in calibration
// units with paired runs on every PR.
//
// Beside the diff stand the two properties the fresh run must have
// whatever the baseline says, so a mechanical baseline refresh cannot
// erode them: the concmark pause bound and the msjit speedup floor.

// maxPrintedFindings caps Format's listing: a drifted histogram is one
// cause, not a thousand lines.
const maxPrintedFindings = 40

// GateReport is the outcome of one gate comparison.
type GateReport struct {
	BaselinePath string
	// Exact is the number of baseline leaves pinned.
	Exact    int
	Findings []string
}

// OK reports whether the fresh run passed the gate.
func (g *GateReport) OK() bool { return len(g.Findings) == 0 }

// LoadBaseline reads a checked-in msbench JSON report. A key this
// binary's report no longer has is an error, not a silently dropped
// check.
func LoadBaseline(path string) (*JSONReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: gate baseline: %w", err)
	}
	defer f.Close()
	var r JSONReport
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: gate baseline %s: %w", path, err)
	}
	if len(r.Table2) == 0 {
		return nil, fmt.Errorf("bench: gate baseline %s: no table2 states", path)
	}
	return &r, nil
}

// eachHost calls visit on every field tagged `bench:"host"` reachable
// from v, with the field's path as flattenJSON spells it. It does not
// descend into a host field: tagging a section covers all of it.
func eachHost(v reflect.Value, path string, visit func(path string, field reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			eachHost(v.Elem(), path, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachHost(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if f.Tag.Get("bench") == "host" {
				visit(joinPath(path, name), v.Field(i))
			} else {
				eachHost(v.Field(i), joinPath(path, name), visit)
			}
		}
	}
}

// Fingerprint writes the report with every host field zeroed — the
// deterministic residue. The CI determinism job runs the suite twice
// and diffs the two fingerprints byte-for-byte; any difference means
// the simulator leaked host state into virtual results.
func Fingerprint(r *JSONReport, w io.Writer) error {
	// Zero a copy: the caller's report still goes to -json and the gate.
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	var cp JSONReport
	if err := json.Unmarshal(data, &cp); err != nil {
		return err
	}
	eachHost(reflect.ValueOf(&cp), "", func(_ string, field reflect.Value) { field.SetZero() })
	return cp.Write(w)
}

// fingerprintLeaves is the fingerprint as a map: the report flattened
// to leaf path → JSON literal, minus the host leaves.
func fingerprintLeaves(r *JSONReport) map[string]string {
	out := flatten("", r)
	eachHost(reflect.ValueOf(r), "", func(path string, _ reflect.Value) {
		for k := range out {
			if k == path || strings.HasPrefix(k, path+".") || strings.HasPrefix(k, path+"[") {
				delete(out, k)
			}
		}
	})
	return out
}

// RunGate compares a fresh report against the baseline. The fresh
// run's own properties lead the findings so Format's cap never hides
// them; the fingerprint diff follows, sorted by leaf path.
func RunGate(baseline, fresh *JSONReport, baselinePath string) *GateReport {
	g := &GateReport{BaselinePath: baselinePath}

	// The pause bound: the concurrent marker's longest stop-the-world
	// window must undercut the serial full-GC pause on every row.
	if fresh.ConcMark != nil {
		for _, r := range fresh.ConcMark.Rows {
			if r.ConcMaxPause >= r.SerialMaxPause {
				g.Findings = append(g.Findings, fmt.Sprintf(
					"concmark/keep=%d: pause bound broken: concurrent max pause %d ticks >= serial max pause %d ticks",
					r.Keep, r.ConcMaxPause, r.SerialMaxPause))
			}
		}
	}
	// The msjit tier's host speedup is machine-bound, so instead of
	// comparing it to the baseline the fresh run's fusion kernels are
	// held to the floor.
	if fresh.JIT != nil {
		if s := fresh.JIT.FusionSpeedup(); s < JITSpeedupFloor {
			g.Findings = append(g.Findings, fmt.Sprintf(
				"jit/fusion_speedup: fused tier %.2fx on its kernels, floor %.2fx", s, JITSpeedupFloor))
		}
	}

	base := fingerprintLeaves(baseline)
	for k := range base {
		if !strings.HasSuffix(k, arrayLen) {
			g.Exact++
		}
	}
	g.Findings = append(g.Findings, sanitize.FingerprintDiff("baseline", "fresh", base, fingerprintLeaves(fresh))...)
	return g
}

// Format renders the gate verdict for terminal output.
func (g *GateReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench gate vs %s\n", g.BaselinePath)
	fmt.Fprintf(&b, "  %d deterministic leaves pinned\n", g.Exact)
	if g.OK() {
		b.WriteString("  PASS\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  FAIL: %d finding(s)\n", len(g.Findings))
	// Per top-level section first, so a refresh confined to one section
	// reads off one run whatever the cap hides.
	perSection := map[string]int{}
	for _, f := range g.Findings {
		perSection[section(f)]++
	}
	names := make([]string, 0, len(perSection))
	for name := range perSection {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		names[i] = fmt.Sprintf("%s: %d", name, perSection[name])
	}
	fmt.Fprintf(&b, "  by section: %s\n", strings.Join(names, ", "))
	for i, f := range g.Findings {
		if i == maxPrintedFindings {
			fmt.Fprintf(&b, "    ... and %d more\n", len(g.Findings)-i)
			break
		}
		fmt.Fprintf(&b, "    %s\n", f)
	}
	return b.String()
}

// section is the top-level report key a finding names: the leaf path's
// first element, or the property's prefix ("concmark/keep=…").
func section(finding string) string {
	if i := strings.IndexAny(finding, ".[/:"); i >= 0 {
		return finding[:i]
	}
	return finding
}
