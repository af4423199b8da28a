package bench

import (
	"fmt"
	"strings"

	"mst/internal/core"
	"mst/internal/interp"
)

// The inline-cache ablation (extension; Deutsch–Schiffman/Hölzle
// lineage): the same four system states as Table 2, each run with the
// send-site inline caches off, monomorphic, and polymorphic, reporting
// virtual times and the hit/miss counters of both lookup levels.

// ICPolicies are the ablation's inline-cache configurations, in order.
var ICPolicies = []struct {
	Name   string
	Policy interp.ICPolicy
}{
	{"ic-off", interp.ICOff},
	{"mic", interp.ICMono},
	{"pic", interp.ICPoly},
}

// ICRow is one (state, policy) measurement, as msbench -json writes it.
type ICRow struct {
	State  string  `json:"state"`
	Policy string  `json:"policy"`
	Ms     []int64 `json:"virtual_ms"` // per ablation benchmark

	ICHitRate    float64 `json:"ic_hit_rate"`    // hits over inline-cache probes (0 when ICs are off)
	CacheHitRate float64 `json:"cache_hit_rate"` // hits over method-cache probes
	ICFills      uint64  `json:"ic_fills"`
	ICPolySites  uint64  `json:"ic_poly_sites"`
	ICMegaSites  uint64  `json:"ic_mega_sites"`
}

// hitRate is hits over hits+misses, 0 with no probes.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// ICAblation is the full matrix.
type ICAblation struct {
	Benches []string `json:"inline_cache_benches"`
	Iters   int      `json:"inline_cache_iterations"`
	Rows    []ICRow  `json:"inline_cache"`
}

// icIters runs each benchmark several times per system: inline caches
// warm once and persist (they survive scavenges as GC roots), while the
// flushed-per-scavenge method cache keeps re-warming, so the steady
// state only emerges past the first iteration.
const icIters = 3

// RunInlineCacheAblation measures the four standard states under each
// inline-cache policy. Only InlineCache varies (the method cache stays
// the state's own direct-mapped organization) so the two lookup levels
// are compared on equal footing.
func RunInlineCacheAblation() (*ICAblation, error) {
	a := &ICAblation{Benches: ablationBenches, Iters: icIters}
	for _, st := range StandardStates() {
		for _, pol := range ICPolicies {
			st, pol := st, pol
			wrapped := st
			wrapped.Config = func() core.Config {
				c := st.Config()
				c.InlineCache = pol.Policy
				return c
			}
			sys, err := NewBenchSystem(wrapped)
			if err != nil {
				return nil, err
			}
			row := ICRow{State: st.Name, Policy: pol.Name}
			for _, b := range ablationBenches {
				var total int64
				for it := 0; it < icIters; it++ {
					ms, err := RunMacro(sys, b)
					if err != nil {
						sys.Shutdown()
						return nil, fmt.Errorf("bench: inlinecache %s/%s/%s: %w", st.Name, pol.Name, b, err)
					}
					total += ms
				}
				row.Ms = append(row.Ms, total)
			}
			s := sys.Stats().Interp
			sys.Shutdown()
			row.ICHitRate = hitRate(s.ICHits, s.ICMisses)
			row.CacheHitRate = hitRate(s.CacheHits, s.CacheMisses)
			row.ICFills, row.ICPolySites, row.ICMegaSites = s.ICFills, s.ICPolySites, s.ICMegaSites
			a.Rows = append(a.Rows, row)
		}
	}
	return a, nil
}

// Format renders the ablation as a table grouped by state.
func (a *ICAblation) Format() string {
	var b strings.Builder
	b.WriteString("Ablation: per-send-site inline caches (extension beyond the paper)\n")
	b.WriteString("ic-off = method cache only; mic = monomorphic sites; pic = polymorphic sites\n")
	fmt.Fprintf(&b, "virtual times are the sum of %d iterations per benchmark\n\n", a.Iters)
	fmt.Fprintf(&b, "%-10s %-8s", "state", "policy")
	for _, bench := range a.Benches {
		fmt.Fprintf(&b, "%22s", bench)
	}
	fmt.Fprintf(&b, "%10s %10s %10s %10s %6s\n", "IC hit%", "MC hit%", "IC fills", "polysites", "mega")
	b.WriteString(strings.Repeat("-", 10+1+8+22*len(a.Benches)+4*10+10))
	b.WriteString("\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-10s %-8s", r.State, r.Policy)
		for _, ms := range r.Ms {
			fmt.Fprintf(&b, "%20dms", ms)
		}
		if r.Policy == "ic-off" {
			fmt.Fprintf(&b, "%10s", "—")
		} else {
			fmt.Fprintf(&b, "%9.1f%%", r.ICHitRate*100)
		}
		fmt.Fprintf(&b, "%9.1f%% %10d %10d %6d\n", r.CacheHitRate*100, r.ICFills, r.ICPolySites, r.ICMegaSites)
	}
	return b.String()
}
