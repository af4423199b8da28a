//go:build go1.23

package firefly

import "iter"

// newCoro wraps body in a runtime coroutine. resume runs body until it
// next calls the yield it was handed, or returns; a panic in body is
// re-raised in resume's caller. The switch is direct: it never visits
// the Go scheduler and never crosses threads.
//
//msvet:defined-once iter.Pull processors are coroutines, and this is the one place a coroutine is made
func newCoro(body func(yield func())) (resume func()) {
	next, _ := iter.Pull(func(y func(struct{}) bool) {
		body(func() { y(struct{}{}) })
	})
	return func() { next() }
}
