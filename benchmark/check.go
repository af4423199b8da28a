package main

import "fmt"

// Answer checking that does not trust the program: every reference
// below is either written by hand from a closed form or computed by a
// Go model, never read back from the system under test.

// canary is a small expression with a hand-computed printString. The
// macro_* and gc_churn workloads evaluate the set between passes: a
// system that has started computing wrong answers fails here even
// though the macros only answer virtual times. Timed one by one, the
// canaries are also those workloads' requests — the latency of a small
// interactive doIt on that system state.
type canary struct {
	source string
	want   string
}

// numCanaries is odd on purpose: with equally many samples of each
// expression the median request falls inside one expression's cluster
// of latencies, not in the gap between two.
const numCanaries = 9

// SmallInteger range only: the image has no large integers. The order
// is fixed, not seeded: which canary follows which decides which of them
// meet a scavenge, and that moved the request p99 by 20 % between seeds
// — a difference between inputs, where the seeds are meant to differ
// only in noise.
var canaries = [numCanaries]canary{
	// Σ 1..100 = 100·101/2
	{"(1 to: 100) inject: 0 into: [:a :b | a + b]", "5050"},
	// 10!
	{"(1 to: 10) inject: 1 into: [:a :b | a * b]", "3628800"},
	// Σ i² for 1..20 = 20·21·41/6
	{"((1 to: 20) collect: [:i | i * i]) inject: 0 into: [:a :b | a + b]", "2870"},
	{"'hello world' reversed", "'dlrow olleh'"},
	// Σ i³ for 1..50 = (50·51/2)²
	{"(1 to: 50) inject: 0 into: [:a :b | a + (b * b * b)]", "1625625"},
	// 3·Σ 1..10
	{"| a | a := Array new: 10. 1 to: 10 do: [:i | a at: i put: i * 3]. a inject: 0 into: [:x :y | x + y]", "165"},
	// multiples of 3 up to 30
	{"((1 to: 30) select: [:i | i \\\\ 3 = 0]) size", "10"},
	// 12² + 20 entries
	{"| d | d := Dictionary new. 1 to: 20 do: [:i | d at: i put: i * i]. (d at: 12) + d size", "164"},
	{"| s | s := WriteStream on: (String new: 8). 1 to: 5 do: [:i | i printOn: s]. s contents", "'12345'"},
}

// sessionModel is the Go model of one tenant's ServeSession: the hit
// count and the length of its note log.
type sessionModel struct{ hits, notes int }

// apply performs catalog request kind on the model and returns the
// printString the server must answer. The kinds are serve.Catalog's, in
// its order: bump, digest, note, sum, alloc.
func (s *sessionModel) apply(kind int) string {
	switch kind {
	case 0: // bump: count a hit, answer the new count
		s.hits++
		return fmt.Sprint(s.hits)
	case 1:
		return s.digest()
	case 2: // note: append to the log, answer its new size
		s.notes++
		return fmt.Sprint(s.notes)
	case 3: // sum: Σ 1..50
		return "1275"
	case 4: // alloc: the last of 48 squares
		return "2304"
	}
	panic(fmt.Sprintf("benchmark: no model for request kind %d", kind))
}

// digest is the reply to `Session digest`: 'hits/notes'.
func (s *sessionModel) digest() string { return fmt.Sprintf("'%d/%d'", s.hits, s.notes) }
