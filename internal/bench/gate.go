package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"mst/internal/sanitize"
)

// The benchmark-regression gate (msbench -gate) is one rule: a fresh run
// passes iff its report equals the checked-in baseline (BENCH_pr10.json)
// leaf for leaf. Every leaf is exact — virtual times, interpreter and
// heap counters, histogram buckets, every ablation column — so any
// drift is either a real change (update the baseline deliberately, in
// the same commit) or a bug. Both reports are flattened to leaf path →
// JSON literal and diffed by the comparison the sanitizer's twin runs
// use (sanitize.FingerprintDiff), so a new report section is gated the
// moment it exists. Host cost is benchmark/'s, in calibration units.
//
// Beside the diff stands the one property the fresh run must have
// whatever the baseline says, so a mechanical baseline refresh cannot
// erode it: the concmark pause bound.

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

// RunGate compares a fresh report against the baseline. The fresh
// run's own property leads the findings so Format's cap never hides
// it; the leaf diff follows, sorted by leaf path.
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

	base := flatten("", baseline)
	for k := range base {
		if !strings.HasSuffix(k, arrayLen) {
			g.Exact++
		}
	}
	g.Findings = append(g.Findings, sanitize.FingerprintDiff("baseline", "fresh", base, flatten("", fresh))...)
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
