package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"mst/internal/core"
)

// ctr indexes one exact counter read from outside a system: the
// numbers core.System.Stats, Machine.Switches and System.VirtualTime
// already expose. Deltas of these over a fixed number of passes repeat
// exactly from run to run; a host-only change leaves all of them
// unchanged.
type ctr int

const (
	cVirtTicks ctr = iota
	cSwitches
	cProcBusy
	cProcSpin
	cProcStall
	cProcIdle
	cLockAcquires
	cLockContended
	cBytecodes
	cSends
	cPrims
	cCacheHits
	cCacheMisses
	cICHits
	cICMisses
	cCtxAlloc
	cCtxRecycled
	cProcessSwitches
	cJITCompiles
	cJITDeopts
	cJITBytecodes
	cAllocs
	cAllocWords
	cScavenges
	cCopiedWords
	cTenuredWords
	cStoreChecks
	cFullCollections
	cScavengeTicks
	cFullGCTicks
	nCtr
)

type counters [nCtr]uint64

// readCounters snapshots every exact counter of sys.
func readCounters(sys *core.System) counters {
	var c counters
	st := sys.Stats()
	c[cVirtTicks] = uint64(sys.VirtualTime())
	c[cSwitches] = sys.VM.M.Switches()
	for _, p := range st.Procs {
		c[cProcBusy] += uint64(p.Busy)
		c[cProcSpin] += uint64(p.Spin)
		c[cProcStall] += uint64(p.Stall)
		c[cProcIdle] += uint64(p.Idle)
	}
	for _, l := range st.Locks {
		c[cLockAcquires] += l.Acquisitions
		c[cLockContended] += l.Contentions
	}
	in := st.Interp
	c[cBytecodes] = in.Bytecodes
	c[cSends] = in.Sends
	c[cPrims] = in.Primitives
	c[cCacheHits] = in.CacheHits
	c[cCacheMisses] = in.CacheMisses
	c[cICHits] = in.ICHits
	c[cICMisses] = in.ICMisses
	c[cCtxAlloc] = in.ContextsAlloc
	c[cCtxRecycled] = in.ContextsRecycled
	c[cProcessSwitches] = in.ProcessSwitches
	c[cJITCompiles] = in.JITCompiles
	c[cJITDeopts] = in.JITDeopts
	c[cJITBytecodes] = in.JITBytecodes
	h := st.Heap
	c[cAllocs] = h.Allocations
	c[cAllocWords] = h.AllocatedWords
	c[cScavenges] = h.Scavenges
	c[cCopiedWords] = h.CopiedWords
	c[cTenuredWords] = h.TenuredWords
	c[cStoreChecks] = h.StoreChecks
	c[cFullCollections] = h.FullCollections
	c[cScavengeTicks] = uint64(h.ScavengeTime)
	c[cFullGCTicks] = uint64(h.FullGCTime)
	return c
}

// minus returns the growth of every counter since before.
func (c counters) minus(before counters) counters {
	for i := range c {
		c[i] -= before[i]
	}
	return c
}

// fingerprint hashes the per-pass sequence of virtual results. Two runs
// of one commit must print the same value; a host-only change must not
// move it.
type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

// add folds one labelled list of integers into the hash.
func (f *fingerprint) add(label string, vals ...int64) {
	fmt.Fprintf(f.h, "%s", label)
	for _, v := range vals {
		fmt.Fprintf(f.h, " %d", v)
	}
	fmt.Fprintln(f.h)
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }
