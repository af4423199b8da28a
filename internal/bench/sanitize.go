package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"mst/internal/core"
	"mst/internal/sanitize"
)

// The sanitize section: rerun every state of the measured Table 2 with
// the mscheck invariant sanitizer on, and report two things per state:
//
//   - the verdict: zero violations on the real workload;
//   - the determinism sentinel: the sanitized run's virtual times and
//     full metrics registry are bit-identical to the Table 2 run (the
//     checker observes, never perturbs).
//
// The checker's host cost is benchmark/'s sanitize.overhead_share.

// SanitizeRow is one state's sanitized-versus-plain comparison.
type SanitizeRow struct {
	State string `json:"state"`
	// VirtualMS is the sanitized run's per-benchmark virtual times
	// (the Table 2 row whenever Identical is true).
	VirtualMS []int64 `json:"virtual_ms"`
	// Identical reports the determinism sentinel: virtual times and
	// the whole metrics registry match the Table 2 run. Divergences lists what differed (empty when Identical).
	Identical   bool     `json:"identical"`
	Divergences []string `json:"divergences,omitempty"`
	// Violations and Cycles are the checker's findings on the real
	// workload (both empty on a correct build).
	Violations int      `json:"violations"`
	Cycles     []string `json:"lock_order_cycles,omitempty"`
	// OrderViolations lists runtime acquisition-order edges absent from
	// the static lock graph (msvet -lockgraph) when one was supplied —
	// the static analysis missed an acquire path.
	OrderViolations []string `json:"order_violations,omitempty"`
	// Checker work volume.
	LockEvents   uint64 `json:"lock_events"`
	AccessChecks uint64 `json:"access_checks"`
	BarrierScans uint64 `json:"barrier_scans"`
	BarrierWords uint64 `json:"barrier_words"`
}

// SanitizeReport is the report's sanitize section.
type SanitizeReport struct {
	Benches []string      `json:"benches"`
	Rows    []SanitizeRow `json:"rows"`
}

// Clean reports whether every state ran violation-free, cycle-free, and
// bit-identical to its Table 2 run.
func (r *SanitizeReport) Clean() bool {
	for _, row := range r.Rows {
		if row.Violations != 0 || len(row.Cycles) != 0 || len(row.OrderViolations) != 0 || !row.Identical {
			return false
		}
	}
	return true
}

// flatten marshals v and flattens its JSON tree to leaf path → JSON
// literal, the shape sanitize.FingerprintDiff compares. Numbers keep
// their literal text (json.Number), so no float64 round trip can merge
// two distinct uint64s above 2^53.
func flatten(root string, v any) map[string]string {
	var tree any
	data, err := json.Marshal(v)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		err = dec.Decode(&tree)
	}
	if err != nil {
		return map[string]string{"!json-error": err.Error()}
	}
	out := map[string]string{}
	flattenJSON(root, tree, out)
	return out
}

// arrayLen suffixes the pseudo-leaf carrying an array's length. It
// sorts ahead of the array's rows, so a row added or removed reads as
// a length mismatch first and the cascade of shifted rows after it.
const arrayLen = "[#]"

func joinPath(key, k string) string {
	if key == "" {
		return k
	}
	return key + "." + k
}

func flattenJSON(key string, v any, out map[string]string) {
	switch v := v.(type) {
	case map[string]any:
		for k, sub := range v {
			flattenJSON(joinPath(key, k), sub, out)
		}
	case []any:
		out[key+arrayLen] = strconv.Itoa(len(v))
		for i, sub := range v {
			flattenJSON(fmt.Sprintf("%s[%d]", key, i), sub, out)
		}
	case json.Number:
		out[key] = v.String()
	case string:
		out[key] = strconv.Quote(v)
	case bool:
		out[key] = strconv.FormatBool(v)
	case nil:
		out[key] = "null"
	}
}

// RunSanitize reruns every standard state of the measured Table 2 with
// the sanitizer on (and the histograms, as in Table 2) and holds each
// run to its Table 2 row's times and metrics. When staticEdges is
// non-nil (the "a -> b" strings of msvet -lockgraph), every state's
// observed acquisition-order edges are also verified to be a subgraph
// of the static graph.
func RunSanitize(table2 []JSONState, staticEdges []string) (*SanitizeReport, error) {
	r := &SanitizeReport{Benches: macroSelectors()}
	for _, js := range table2 {
		st, ok := standardState(js.State)
		if !ok {
			return nil, fmt.Errorf("bench: sanitize: no standard state %q", js.State)
		}
		row := SanitizeRow{State: st.Name}
		var m core.Metrics
		sanitized := st.with(func(cfg *core.Config) {
			cfg.Histograms = true
			cfg.Sanitize = true
		})
		ms, err := runState(sanitized, r.Benches, func(sys *core.System) error {
			san := sys.Sanitizer()
			if san == nil {
				return fmt.Errorf("bench: sanitize %s: checker did not attach", st.Name)
			}
			row.Violations = len(san.Violations())
			row.Cycles = san.LockOrderCycles()
			if staticEdges != nil {
				row.OrderViolations = san.StaticOrderViolations(staticEdges)
			}
			cs := san.Stats()
			row.LockEvents = cs.LockEvents
			row.AccessChecks = cs.AccessChecks
			row.BarrierScans = cs.BarrierScans
			row.BarrierWords = cs.BarrierWords
			m = sys.Metrics()
			return nil
		})
		if err != nil {
			return nil, err
		}
		var plain []int64
		for _, b := range js.Benches {
			plain = append(plain, b.VirtualMS)
		}
		row.VirtualMS = ms
		if !reflect.DeepEqual(plain, ms) {
			row.Divergences = append(row.Divergences,
				fmt.Sprintf("virtual times: off=%v on=%v", plain, ms))
		}
		row.Divergences = append(row.Divergences, sanitize.FingerprintDiff("off", "on",
			flatten("metrics", js.Metrics), flatten("metrics", m))...)
		row.Identical = len(row.Divergences) == 0
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Format renders the report as a table plus any findings.
func (r *SanitizeReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mscheck sanitizer over the standard states (%d macro benchmarks each)\n", len(r.Benches))
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %12s %9s\n",
		"state", "violations", "lock-events", "accesses", "barrier-wds", "identical")
	for _, row := range r.Rows {
		ident := "yes"
		if !row.Identical {
			ident = "NO"
		}
		fmt.Fprintf(&b, "%-10s %10d %12d %12d %12d %9s\n",
			row.State, row.Violations, row.LockEvents, row.AccessChecks, row.BarrierWords, ident)
	}
	for _, row := range r.Rows {
		for _, c := range row.Cycles {
			fmt.Fprintf(&b, "  %s: lock-order cycle: %s\n", row.State, c)
		}
		for _, e := range row.OrderViolations {
			fmt.Fprintf(&b, "  %s: edge missing from static lock graph: %s\n", row.State, e)
		}
		for _, d := range row.Divergences {
			fmt.Fprintf(&b, "  %s: DIVERGENCE: %s\n", row.State, d)
		}
	}
	if r.Clean() {
		b.WriteString("mscheck: clean — zero violations, all states bit-identical with the sanitizer on\n")
	} else {
		b.WriteString("mscheck: FAILED — see findings above\n")
	}
	return b.String()
}
