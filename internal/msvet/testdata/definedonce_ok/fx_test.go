package fixture

import "iter"

// A test may call the callee directly: the rule covers non-test code.
func pullOnce() {
	next, stop := iter.Pull(func(y func(int) bool) { y(1) })
	next()
	stop()
}
