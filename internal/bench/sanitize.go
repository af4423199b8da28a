package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"mst/internal/core"
	"mst/internal/sanitize"
)

// msbench -sanitize: run every standard state's macro benchmarks twice,
// without and with the mscheck invariant sanitizer, and report three
// things per state:
//
//   - the verdict: zero violations on the real workload;
//   - the determinism sentinel: the sanitized run's virtual times and
//     full metrics registry are bit-identical to the plain run (the
//     checker observes, never perturbs);
//   - the host-side cost of checking (the only place the sanitizer is
//     allowed to cost anything).

// SanitizeRow is one state's sanitized-versus-plain comparison.
type SanitizeRow struct {
	State string `json:"state"`
	// VirtualMS is the per-benchmark virtual times (identical in both
	// runs whenever Identical is true).
	VirtualMS []int64 `json:"virtual_ms"`
	// Identical reports the determinism sentinel: virtual times and
	// the whole metrics registry match between plain and sanitized
	// runs. Divergences lists what differed (empty when Identical).
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
	// Checker work volume and host-side cost.
	LockEvents   uint64  `json:"lock_events"`
	AccessChecks uint64  `json:"access_checks"`
	BarrierScans uint64  `json:"barrier_scans"`
	BarrierWords uint64  `json:"barrier_words"`
	HostPlainNS  int64   `json:"host_plain_ns" bench:"host"`
	HostCheckNS  int64   `json:"host_checked_ns" bench:"host"`
	OverheadPct  float64 `json:"host_overhead_pct" bench:"host"`
}

// SanitizeReport is the full msbench -sanitize result.
type SanitizeReport struct {
	Benches []string      `json:"benches"`
	Rows    []SanitizeRow `json:"rows"`
}

// Clean reports whether every state ran violation-free, cycle-free, and
// bit-identical to its unsanitized twin.
func (r *SanitizeReport) Clean() bool {
	for _, row := range r.Rows {
		if row.Violations != 0 || len(row.Cycles) != 0 || len(row.OrderViolations) != 0 || !row.Identical {
			return false
		}
	}
	return true
}

// sanitizeRun boots one state (optionally sanitized), runs the macro
// benchmarks, and returns the per-benchmark virtual times, the final
// metrics fingerprint, the checker (nil when off), and host wall time.
func sanitizeRun(st State, sanitized bool) ([]int64, map[string]string, *sanitize.Checker, int64, error) {
	cfg := st.Config()
	cfg.Sanitize = sanitized
	cfg.ExtraSources = append(cfg.ExtraSources, MacroSource)
	t0 := time.Now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("bench: sanitize boot %s: %w", st.Name, err)
	}
	defer sys.Shutdown()
	if st.Background != nil {
		if err := st.Background(sys); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("bench: sanitize background %s: %w", st.Name, err)
		}
	}
	var ms []int64
	for _, b := range MacroBenchmarks {
		v, err := RunMacro(sys, b.Selector)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("bench: sanitize %s/%s: %w", st.Name, b.Selector, err)
		}
		ms = append(ms, v)
	}
	host := time.Since(t0).Nanoseconds()
	fp := flatten("metrics", sys.Metrics())
	return ms, fp, sys.Sanitizer(), host, nil
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

// RunSanitize measures every standard state plain and sanitized.
func RunSanitize() (*SanitizeReport, error) {
	return RunSanitizeStatic(nil)
}

// RunSanitizeStatic is RunSanitize plus the static cross-check: when
// staticEdges is non-nil (the "a -> b" strings of msvet -lockgraph),
// every state's observed acquisition-order edges are verified to be a
// subgraph of the static graph.
func RunSanitizeStatic(staticEdges []string) (*SanitizeReport, error) {
	r := &SanitizeReport{}
	for _, b := range MacroBenchmarks {
		r.Benches = append(r.Benches, b.Selector)
	}
	for _, st := range StandardStates() {
		plainMs, plainFP, _, plainHost, err := sanitizeRun(st, false)
		if err != nil {
			return nil, err
		}
		checkMs, checkFP, san, checkHost, err := sanitizeRun(st, true)
		if err != nil {
			return nil, err
		}
		if san == nil {
			return nil, fmt.Errorf("bench: sanitize %s: checker did not attach", st.Name)
		}
		row := SanitizeRow{
			State:       st.Name,
			VirtualMS:   checkMs,
			Violations:  len(san.Violations()),
			Cycles:      san.LockOrderCycles(),
			HostPlainNS: plainHost,
			HostCheckNS: checkHost,
		}
		if staticEdges != nil {
			row.OrderViolations = san.StaticOrderViolations(staticEdges)
		}
		cs := san.Stats()
		row.LockEvents = cs.LockEvents
		row.AccessChecks = cs.AccessChecks
		row.BarrierScans = cs.BarrierScans
		row.BarrierWords = cs.BarrierWords
		if plainHost > 0 {
			row.OverheadPct = 100 * float64(checkHost-plainHost) / float64(plainHost)
		}
		if !reflect.DeepEqual(plainMs, checkMs) {
			row.Divergences = append(row.Divergences,
				fmt.Sprintf("virtual times: off=%v on=%v", plainMs, checkMs))
		}
		row.Divergences = append(row.Divergences, sanitize.FingerprintDiff("off", "on", plainFP, checkFP)...)
		row.Identical = len(row.Divergences) == 0
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Format renders the report as a table plus any findings.
func (r *SanitizeReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mscheck sanitizer over the standard states (%d macro benchmarks each)\n", len(r.Benches))
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %12s %9s %10s %9s\n",
		"state", "violations", "lock-events", "accesses", "barrier-wds", "identical", "host-ms", "overhead")
	for _, row := range r.Rows {
		ident := "yes"
		if !row.Identical {
			ident = "NO"
		}
		fmt.Fprintf(&b, "%-10s %10d %12d %12d %12d %9s %10.1f %8.1f%%\n",
			row.State, row.Violations, row.LockEvents, row.AccessChecks, row.BarrierWords,
			ident, float64(row.HostCheckNS)/1e6, row.OverheadPct)
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
