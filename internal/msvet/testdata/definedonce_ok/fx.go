// Package fixture keeps its //msvet:defined-once pairing: the carrier
// calls its callee, from a closure, and no other non-test function does.
package fixture

import "iter"

// newCoro is the one place a coroutine is made.
//
//msvet:defined-once iter.Pull the one coroutine constructor
func newCoro(body func(yield func())) (resume func()) {
	var next func() (struct{}, bool)
	start := func() {
		next, _ = iter.Pull(func(y func(struct{}) bool) { body(func() { y(struct{}{}) }) })
	}
	start()
	return func() { next() }
}

// Start runs body as a coroutine.
func Start(body func(yield func())) (resume func()) { return newCoro(body) }
