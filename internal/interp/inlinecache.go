package interp

import (
	"sort"

	"mst/internal/bytecode"
	"mst/internal/jit"
	"mst/internal/object"
)

// Per-send-site inline caches (an extension beyond the paper; see
// ICPolicy). Each send site of a method — identified by the pc of its
// send opcode — remembers the receiver class(es) it has dispatched on
// and the bound method, so a repeated send to the same class skips the
// method cache entirely. A monomorphic site (ICMono) holds one binding
// that is rebound on class change, Deutsch–Schiffman style; a
// polymorphic site (ICPoly) grows up to icWays bindings, Hölzle-style.
//
// Like the method caches, inline caches key on raw oops and are flushed
// before every scavenge and on every method install.

// icWays is the polymorphic inline cache capacity per send site.
const icWays = 8

// icEntry is one class→method binding of a send site.
type icEntry struct {
	class  object.OOP
	method object.OOP
	prim   int
}

// icSite is the inline cache of one send site.
type icSite struct {
	n       int  // bound entries
	mega    bool // ICPoly: overflowed; probes go straight to the method cache
	entries [icWays]icEntry
}

// probe scans the site for class.
func (s *icSite) probe(class object.OOP) (object.OOP, int, bool) {
	for i := 0; i < s.n; i++ {
		if e := &s.entries[i]; e.class == class {
			return e.method, e.prim, true
		}
	}
	return object.Nil, 0, false
}

// icMethod holds the inline caches of one compiled method: the sorted
// pcs of its send opcodes and one icSite per send site. The method oop
// is kept so the structure can be re-keyed after a scavenge. jc is the
// method's msjit body once it has been fused (jit.go): it binds to these
// sites and captures no oops, so it lives exactly as long as they do.
type icMethod struct {
	method object.OOP
	pcs    []int32
	sites  []icSite
	jc     *jitCode
}

// siteIndex maps a send opcode's pc to its site index (binary search
// over the sorted pc list), or -1 when pc is not a known send site.
func (m *icMethod) siteIndex(pc int) int {
	lo, hi := 0, len(m.pcs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(m.pcs[mid]) < pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(m.pcs) && int(m.pcs[lo]) == pc {
		return lo
	}
	return -1
}

// icFor returns (creating on first use) the inline-cache state for
// method, whose decoded bytecode is code. The method header's send-site
// count serves as a zero-site fast path; the bytecode scan is the
// source of truth for the site list.
func (in *Interp) icFor(method object.OOP, code []byte) *icMethod {
	if m, ok := in.ic[method]; ok {
		return m
	}
	m := &icMethod{method: method}
	if headerSendSites(in.vm.H.Fetch(method, CMHeader)) != 0 {
		pcs := bytecode.SendSites(code)
		m.pcs = make([]int32, len(pcs))
		m.sites = make([]icSite, len(pcs))
		for i, pc := range pcs {
			m.pcs[i] = int32(pc)
		}
	}
	in.ic[method] = m
	return m
}

// icFill (re)binds a site after a miss resolved through the method
// cache / dictionary walk.
func (in *Interp) icFill(site *icSite, class, method object.OOP, prim int) {
	in.p.Advance(in.costs.ICFill)
	in.stats.ICFills++
	if in.icPolicy == ICMono || site.n == 0 {
		site.entries[0] = icEntry{class, method, prim}
		site.n = 1
		return
	}
	if site.n < icWays {
		if site.n == 1 {
			in.stats.ICPolySites++
		}
		site.entries[site.n] = icEntry{class, method, prim}
		site.n++
		return
	}
	// The site has seen more classes than a PIC holds: it is
	// megamorphic. Rather than thrash the entries (a fill per send,
	// near-zero hits), retire the site — Hölzle's PICs rewrite such
	// sends to call the generic lookup directly, which here means the
	// plain method-cache path.
	site.mega = true
	site.n = 0
	in.stats.ICMegaSites++
	// The compiled body baked in "probe this site"; retirement changes
	// the site's send protocol, so the template tier bails to the
	// interpreter and refuses to recompile this method.
	in.jitDemote(in.method, jit.DeoptMegamorphic)
}

// flushIC drops every inline-cache binding (a method install made class
// →method bindings stale) and with it every fused body, which bakes in
// the site identities. Unlike the method caches, inline caches
// survive scavenges: their oops are registered as root slots (see
// icVisitRoots) and re-keyed afterwards (rekeyIC), the way production
// VMs patch inline caches during GC instead of discarding them.
func (in *Interp) flushIC() {
	for k := range in.ic {
		delete(in.ic, k)
	}
	in.icm = nil
}

// icVisitRoots presents every oop held by the inline caches to the
// scavenger as updatable root slots. Registered only when ICs are on,
// so the default configuration's root set — and therefore its scavenge
// work and virtual timing — is untouched.
//
// The methods are visited in sorted-oop order, NOT map order: the
// scavenger copies survivors in the order it first reaches them, so
// root order decides to-space addresses, which decide method-cache
// hashing and hence virtual timing. Go map iteration order would make
// every IC-enabled run differ (the determinism CI job caught this).
//
// The parallel scavenger leans on the same contract: seed
// (internal/heap/scavenge.go) deals root slots round-robin across
// its worker deques in visit order, so a stable visit order is what
// makes the deterministic-mode work partition — and the simulated
// scavenge times derived from it — reproducible.
func (in *Interp) icVisitRoots(visit func(*object.OOP)) {
	keys := make([]object.OOP, 0, len(in.ic))
	for k := range in.ic {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		m := in.ic[k]
		visit(&m.method)
		for i := range m.sites {
			s := &m.sites[i]
			for j := 0; j < s.n; j++ {
				visit(&s.entries[j].class)
				visit(&s.entries[j].method)
			}
		}
	}
}

// rekeyIC rebuilds the method→icMethod map after a scavenge moved the
// key oops (the values' embedded oops were updated as roots).
func (in *Interp) rekeyIC() {
	if len(in.ic) == 0 {
		return
	}
	fresh := make(map[object.OOP]*icMethod, len(in.ic))
	for _, m := range in.ic {
		fresh[m.method] = m
	}
	in.ic = fresh
}
