package trace

// The allocation-site profiler: attributes allocated objects and words
// to the allocating Class>>selector, and follows each site's objects
// through the scavenger to derive survivor and tenure rates. The heap
// reports events by interned site id; the interpreter supplies names
// through a callback, so this package stays dependency-free.
//
// An object-demographics age census rides along: at every scavenge the
// copying pass reports each survivor's age, building the population
// pyramid the tenure-threshold policy acts on.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MaxObjectAge mirrors the heap's age-field saturation; the census
// clamps to it.
const MaxObjectAge = 31

type allocSite struct {
	objects      uint64
	words        uint64
	survObjects  uint64 // eden-born objects that survived a first scavenge
	survWords    uint64
	tenureObject uint64 // objects promoted to old space
	tenureWords  uint64
}

// AllocProfiler accumulates per-site allocation statistics. It is
// mutex-guarded: the deterministic mode is single-goroutine, so the
// lock is uncontended there, and the profiler refuses parallel mode at
// the config layer anyway (site attribution needs the interpreter's
// per-processor state mid-bytecode). The methods the heap calls
// (RecordAlloc and the Note family) accept a nil profiler, which is
// profiling switched off.
type AllocProfiler struct {
	//msvet:stw-safe profiler table lock: the GC hooks (NoteSurvived/NoteTenured) fire from inside the scavenge window and the lock is held only for bounded map/slice updates; the profiler refuses parallel mode anyway
	mu    sync.Mutex
	names []string
	index map[string]int
	sites []allocSite
	ages  [MaxObjectAge + 1]struct{ objects, words uint64 }
}

// NewAllocProfiler returns an empty profiler.
func NewAllocProfiler() *AllocProfiler {
	return &AllocProfiler{index: make(map[string]int)}
}

// SiteID interns a site name ("Class>>selector") and returns its id.
func (a *AllocProfiler) SiteID(name string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id, ok := a.index[name]; ok {
		return id
	}
	id := len(a.names)
	a.index[name] = id
	a.names = append(a.names, name)
	a.sites = append(a.sites, allocSite{})
	return id
}

func (a *AllocProfiler) site(id int) *allocSite {
	if id < 0 || id >= len(a.sites) {
		return nil
	}
	return &a.sites[id]
}

// RecordAlloc attributes one allocation of the given word size
// (including the header) to the site.
func (a *AllocProfiler) RecordAlloc(id int, words int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if s := a.site(id); s != nil {
		s.objects++
		s.words += uint64(words)
	}
	a.mu.Unlock()
}

// NoteSurvived reports that an eden-born object from the site survived
// its first scavenge (was copied to a survivor space).
func (a *AllocProfiler) NoteSurvived(id int, words int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if s := a.site(id); s != nil {
		s.survObjects++
		s.survWords += uint64(words)
	}
	a.mu.Unlock()
}

// NoteTenured reports that an object from the site was promoted to old
// space.
func (a *AllocProfiler) NoteTenured(id int, words int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if s := a.site(id); s != nil {
		s.tenureObject++
		s.tenureWords += uint64(words)
	}
	a.mu.Unlock()
}

// NoteAge adds one surviving object of the given age (in scavenges
// survived) to the demographics census. The scavenger calls it for
// every copied object, so the nil test is an inlined wrapper.
func (a *AllocProfiler) NoteAge(age int, words int64) {
	if a != nil {
		a.noteAge(age, words)
	}
}

func (a *AllocProfiler) noteAge(age int, words int64) {
	if age < 0 {
		age = 0
	}
	if age > MaxObjectAge {
		age = MaxObjectAge
	}
	a.mu.Lock()
	a.ages[age].objects++
	a.ages[age].words += uint64(words)
	a.mu.Unlock()
}

// TotalWords returns the total allocated words across all sites.
func (a *AllocProfiler) TotalWords() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var t uint64
	for i := range a.sites {
		t += a.sites[i].words
	}
	return t
}

// TopCoverage returns the fraction of all allocated words attributed to
// the n largest sites (1.0 when there are at most n sites).
func (a *AllocProfiler) TopCoverage(n int) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	words := make([]uint64, len(a.sites))
	var total uint64
	for i := range a.sites {
		words[i] = a.sites[i].words
		total += a.sites[i].words
	}
	if total == 0 {
		return 0
	}
	sort.Slice(words, func(i, j int) bool { return words[i] > words[j] })
	var top uint64
	for i := 0; i < n && i < len(words); i++ {
		top += words[i]
	}
	return float64(top) / float64(total)
}

// Report renders the top-n allocation sites by words, with survivor and
// tenure rates, followed by the age census.
func (a *AllocProfiler) Report(topN int) string {
	a.mu.Lock()
	type row struct {
		name string
		s    allocSite
	}
	rows := make([]row, len(a.sites))
	var totObjects, totWords uint64
	for i := range a.sites {
		rows[i] = row{a.names[i], a.sites[i]}
		totObjects += a.sites[i].objects
		totWords += a.sites[i].words
	}
	ages := a.ages
	a.mu.Unlock()

	sort.SliceStable(rows, func(i, j int) bool { return rows[i].s.words > rows[j].s.words })

	var b strings.Builder
	fmt.Fprintf(&b, "allocation sites: %d sites, %d objects, %d words\n",
		len(rows), totObjects, totWords)
	fmt.Fprintf(&b, "  %8s %8s %6s %6s %6s %6s  %s\n",
		"objects", "words", "wrd%", "cum%", "surv%", "ten%", "site")
	var cum uint64
	shown := 0
	for _, r := range rows {
		if shown >= topN || r.s.words == 0 {
			break
		}
		cum += r.s.words
		surv, ten := "-", "-"
		if r.s.objects > 0 {
			surv = fmt.Sprintf("%.1f", 100*float64(r.s.survObjects)/float64(r.s.objects))
			ten = fmt.Sprintf("%.1f", 100*float64(r.s.tenureObject)/float64(r.s.objects))
		}
		fmt.Fprintf(&b, "  %8d %8d %6.1f %6.1f %6s %6s  %s\n",
			r.s.objects, r.s.words,
			100*float64(r.s.words)/float64(totWords),
			100*float64(cum)/float64(totWords),
			surv, ten, r.name)
		shown++
	}
	if shown < len(rows) {
		fmt.Fprintf(&b, "  (%d more sites, %.1f%% of words)\n",
			len(rows)-shown, 100*float64(totWords-cum)/float64(totWords))
	}

	var censusObjects uint64
	for _, c := range ages {
		censusObjects += c.objects
	}
	if censusObjects > 0 {
		b.WriteString("object demographics (age in scavenges survived, per copy)\n")
		fmt.Fprintf(&b, "  %4s %10s %10s %6s\n", "age", "objects", "words", "obj%")
		for age, c := range ages {
			if c.objects == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %4d %10d %10d %6.1f\n",
				age, c.objects, c.words, 100*float64(c.objects)/float64(censusObjects))
		}
	}
	return b.String()
}
