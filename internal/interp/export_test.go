package interp

import (
	"sync/atomic"

	"mst/internal/compiler"
)

// drop empties c, as a miss at its bound does.
func (c *memo) drop() {
	c.mu.Lock()
	c.table, c.n = nil, 0
	c.mu.Unlock()
}

// latest answers the compile c last kept for source (zero when none).
func (c *memo) latest(source string) compiled {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds := c.table[source]
	if len(ds) == 0 {
		return compiled{}
	}
	return ds[len(ds)-1]
}

// DropDoItMemo empties the process-wide doIt memo, for the external twin
// test that holds a memoizing system against one that compiles every
// request.
func DropDoItMemo() { doits.drop() }

// DropMethodMemo empties the process-wide method memo, so that the next
// boot compiles every method: the cold half of a cold-vs-warm twin.
func DropMethodMemo() { methods.drop() }

// DropFileInPlans empties the process-wide file-in plans, so that the
// next boot reads every source: with DropMethodMemo, a cold boot.
func DropFileInPlans() {
	plans.mu.Lock()
	plans.table = nil
	plans.mu.Unlock()
}

// FileInPlanReads reports how many sources FileInPlan has read in this
// process. Reading a source is the only place file-in lexes or parses.
func FileInPlanReads() int {
	plans.mu.Lock()
	defer plans.mu.Unlock()
	return plans.reads
}

// methodCompiles and doitCompiles count the compiles the method and doIt
// memos have run in this test process, failed ones included: every one
// passes through the counting gen installed below.
var methodCompiles, doitCompiles atomic.Int64

func init() {
	countCompiles(&methods, &methodCompiles)
	countCompiles(&doits, &doitCompiles)
}

// countCompiles makes every compile c runs add one to n.
func countCompiles(c *memo, n *atomic.Int64) {
	gen := c.gen
	c.gen = func(source string, env compiler.Env) (*compiler.Method, error) {
		n.Add(1)
		return gen(source, env)
	}
}

// MethodMemoMisses reports how many compiles the method memo has run in
// this process, failed ones included.
func MethodMemoMisses() int { return int(methodCompiles.Load()) }

// DoItMemoMisses reports how many compiles the doIt memo has run in this
// process, failed ones included.
func DoItMemoMisses() int { return int(doitCompiles.Load()) }
