package sanitize

import (
	"fmt"
	"sort"
)

// FingerprintDiff is the determinism comparison primitive: given two
// named-leaf snapshots of runs that must be bit-identical — the
// sanitizer-off and sanitizer-on twins, or msbench -gate's baseline and
// fresh reports — it returns one line per divergent or missing leaf,
// sorted by name. aName and bName label the two sides in the lines. An
// empty result means the runs are bit-identical.
func FingerprintDiff[V comparable](aName, bName string, a, b map[string]V) []string {
	names := map[string]bool{}
	for k := range a {
		names[k] = true
	}
	for k := range b {
		names[k] = true
	}
	var diffs []string
	for k := range names {
		av, aok := a[k]
		bv, bok := b[k]
		switch {
		case !aok:
			diffs = append(diffs, fmt.Sprintf("%s: missing in %s run (%s=%v)", k, aName, bName, bv))
		case !bok:
			diffs = append(diffs, fmt.Sprintf("%s: missing in %s run (%s=%v)", k, bName, aName, av))
		case av != bv:
			diffs = append(diffs, fmt.Sprintf("%s: %s=%v %s=%v", k, aName, av, bName, bv))
		}
	}
	sort.Strings(diffs)
	return diffs
}
