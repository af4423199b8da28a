package serve

import "testing"

// TestEvalHostAllocations pins the Go allocations of one request on a
// warm tenant — clone materialized, every catalog source compiled once —
// per catalog kind. The bounds are this path's measured counts, not
// budgets with slack: what is left is the wrapped source string, the
// Env and Do closures, the method's category and source strings on
// their way into the image, and the answer's printString on its way out.
// A change that adds an allocation per request fails here, before it
// shows up as drift in the benchmark's gohost.mallocs_per_pass.
func TestEvalHostAllocations(t *testing.T) {
	s := newTestServer(t, Config{Tenants: 1})
	bounds := map[string]float64{"bump": 14, "digest": 14, "note": 15, "sum": 13, "alloc": 14}
	for _, k := range Catalog {
		if _, err := s.Eval(0, k.Source); err != nil {
			t.Fatalf("warm-up %s: %v", k.Name, err)
		}
	}
	for _, k := range Catalog {
		bound, ok := bounds[k.Name]
		if !ok {
			t.Fatalf("catalog kind %q has no allocation bound", k.Name)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := s.Eval(0, k.Source); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		})
		if got > bound {
			t.Errorf("%s: %.0f Go allocations per request, bound %.0f", k.Name, got, bound)
		}
	}
}
