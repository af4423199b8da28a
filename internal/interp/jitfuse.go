package interp

import (
	"mst/internal/firefly"
	"mst/internal/jit"
	"mst/internal/object"
)

// The executor half of superinstruction fusion (see internal/jit
// fuse.go for the analysis and the exactness argument). jitBuild
// installs a fused closure over the head singleton wherever the
// analyzer finds a profitable group; the singleton stays reachable as
// the closure's fallback and at every interior pc, so jumps into the
// middle of a group, quantum tails, and bailouts all resume exactly.
//
// A fused closure runs in two phases around one gate:
//
//	gate     — the group fits in the quantum's remaining bytecodes
//	           (jleft) and its worst-case charge fits strictly under
//	           the yield deadline (YieldSlack), so every CheckYield it
//	           skips would have been a no-op; and the context is in
//	           new space or already remembered, so the elided stack
//	           stores could not have charged a store check.
//	phase 1  — pure evaluation into host registers. Every proof the
//	           interpreter's fast paths demand (SmallInteger operands,
//	           no overflow, at: applicability, Boolean branch
//	           condition) is checked here, before any state change;
//	           failure falls back to the head singleton, which re-runs
//	           bytecode 0 from unmodified state (the outer loop has
//	           already charged it, exactly as for a singleton).
//	phase 2  — batched accounting (identical totals to n per-bytecode
//	           charges; the partial sums are unobservable without a
//	           yield) and the group's net state commit: final temp and
//	           ivar stores through the checked Store (charge parity),
//	           surviving stack values, nils where the interpreter's
//	           pops nilled, sp, and the terminal pc/return.
//
// fuseBailLimit is how many consecutive phase-1 proof failures retire
// a fused closure: a group whose operands are never SmallIntegers pays
// the evaluation with no payoff, so it patches itself back to the head
// singleton. Gate failures (quantum tail, yield deadline) are
// transient and do not count.
const fuseBailLimit = 8

// fuseAdmit is the shared gate: the group's n1 extra bytecodes must fit
// in the quantum's remaining budget, its worst-case charge (bound, plus
// the group's worst-case bus share) must land strictly before the yield
// deadline, and the context must be in new space or already remembered
// so the elided stack stores could not have charged a store check.
func (in *Interp) fuseAdmit(n1 int, bound firefly.Time, busDiv firefly.Time) bool {
	if in.jleft < n1 {
		return false
	}
	if busDiv > 0 {
		if k := in.vm.M.ActiveProcs() - 1; k > 0 {
			bound += (in.busAccum+firefly.Time(n1)*firefly.Time(k))/busDiv + 1
		}
	}
	if in.p.YieldSlack() <= bound {
		return false
	}
	return in.stk.Unchecked()
}

// fuseCharge is the shared batched accounting: identical totals to n1
// per-bytecode charges by the outer loop (the partial sums are
// unobservable without a yield, and the gate proved there is none).
func (in *Interp) fuseCharge(n1 int, charge firefly.Time) {
	in.jleft -= n1
	in.stats.Bytecodes += uint64(n1)
	in.stats.JITBytecodes += uint64(n1)
	in.p.Advance(charge)
	in.busChargeN(n1)
}

// fuseLoadable reports micros that evaluate without any proof and
// without touching the value stack, so a specialized executor can run
// them straight into a host local.
func fuseLoadable(k jit.MicroKind) bool {
	switch k {
	case jit.MLoadTemp, jit.MLoadIVar, jit.MLoadSelf, jit.MConst:
		return true
	}
	return false
}

func (in *Interp) fuseLoad(m jit.Micro) object.OOP {
	switch m.Kind {
	case jit.MLoadTemp:
		return in.tmp.Get(int(m.A))
	case jit.MLoadIVar:
		return in.vm.H.Fetch(in.receiver, int(m.A))
	case jit.MLoadSelf:
		return in.receiver
	default: // jit.MConst
		return object.OOP(m.K)
	}
}

// jitFuseRetFn specializes the most common group shape by execution
// count: a proof-free load followed by return-top (^self, ^ivar,
// ^temp, ^constant). No register file, no micro loop, no stack
// traffic — the interpreter's push and the return's pop cancel.
func (in *Interp) jitFuseRetFn(f *jit.Fused) jitFn {
	if f.Term != jit.TermReturn || len(f.Prog) != 1 || f.Pops != 0 ||
		len(f.Push) != 0 || len(f.TempWrites) != 0 || len(f.IVarWrites) != 0 ||
		!fuseLoadable(f.Prog[0].Kind) || f.Ret != f.Prog[0].Dst {
		return nil
	}
	n1 := f.N - 1
	charge := f.Charge
	busDiv := in.costs.BusDivisor
	m := f.Prog[0]
	nextPC := f.NextPC
	return func() {
		if !in.fuseAdmit(n1, charge, busDiv) {
			in.step()
			return
		}
		v := in.fuseLoad(m)
		in.fuseCharge(n1, charge)
		in.pc = nextPC
		in.returnValue(v, true)
	}
}

// jitFuseCmpBranchFn specializes the loop latch: two proof-free loads,
// a SmallInteger compare, and a conditional jump (the `i <= n` whileTrue
// and to:do: back edges). The compare result feeds the branch directly,
// so the Boolean check disappears with the register file.
func (in *Interp) jitFuseCmpBranchFn(f *jit.Fused, fns []jitFn, pc int) jitFn {
	if f.Term != jit.TermBranch || len(f.Prog) != 3 || f.Pops != 0 ||
		len(f.Push) != 0 || len(f.TempWrites) != 0 || len(f.IVarWrites) != 0 {
		return nil
	}
	ma, mb, mc := f.Prog[0], f.Prog[1], f.Prog[2]
	if mc.Kind != jit.MCompare || !fuseLoadable(ma.Kind) || !fuseLoadable(mb.Kind) ||
		mc.A != ma.Dst || mc.B != mb.Dst || f.Cond != mc.Dst {
		return nil
	}
	n1 := f.N - 1
	charge := f.Charge
	busDiv := in.costs.BusDivisor
	op := mc.Op
	nextPC := f.NextPC
	target := f.Target
	wantTrue := f.Want
	var bails uint32
	return func() {
		if !in.fuseAdmit(n1, charge, busDiv) {
			in.step()
			return
		}
		a := in.fuseLoad(ma)
		b := in.fuseLoad(mb)
		if !a.IsInt() || !b.IsInt() {
			if bails++; bails >= fuseBailLimit {
				fns[pc] = nil
			}
			in.step()
			return
		}
		bails = 0
		in.fuseCharge(n1, charge)
		if intCompare(op, a.Int(), b.Int()) == wantTrue {
			in.pc = target
		} else {
			in.pc = nextPC
		}
	}
}

func (in *Interp) jitFuseFn(f *jit.Fused, fns []jitFn, pc int) jitFn {
	if fn := in.jitFuseRetFn(f); fn != nil {
		return fn
	}
	if fn := in.jitFuseCmpBranchFn(f, fns, pc); fn != nil {
		return fn
	}
	h := in.vm.H
	p := in.p
	n1 := f.N - 1
	charge := f.Charge
	wbound := firefly.Time(len(f.TempWrites)+len(f.IVarWrites)) * in.costs.StoreCheck
	busDiv := in.costs.BusDivisor
	prog := f.Prog
	tw := f.TempWrites
	iw := f.IVarWrites
	pops := f.Pops
	push := f.Push
	term := f.Term
	nextPC := f.NextPC
	target := f.Target
	wantTrue := f.Want
	cond := f.Cond
	ret := f.Ret
	var bails uint32

	bail := func() {
		if bails++; bails >= fuseBailLimit {
			fns[pc] = nil
		}
		in.step()
	}

	return func() {
		if !in.fuseAdmit(n1, charge+wbound, busDiv) {
			in.step()
			return
		}

		// Phase 1: pure evaluation.
		var regs [16]object.OOP
		for pi := range prog {
			m := &prog[pi]
			switch m.Kind {
			case jit.MLoadTemp:
				regs[m.Dst] = in.tmp.Get(int(m.A))
			case jit.MLoadStack:
				regs[m.Dst] = in.stackAt(int(m.A))
			case jit.MLoadIVar:
				regs[m.Dst] = h.Fetch(in.receiver, int(m.A))
			case jit.MLoadLit:
				regs[m.Dst] = in.literalAt(int(m.A))
			case jit.MLoadGlobal:
				regs[m.Dst] = h.Fetch(in.literalAt(int(m.A)), AsValue)
			case jit.MLoadSelf:
				regs[m.Dst] = in.receiver
			case jit.MConst:
				regs[m.Dst] = object.OOP(m.K)
			case jit.MArith:
				a, b := regs[m.A], regs[m.B]
				if !a.IsInt() || !b.IsInt() {
					bail()
					return
				}
				v, ok := intArith(m.Op, a.Int(), b.Int())
				if !ok {
					bail()
					return
				}
				regs[m.Dst] = v
			case jit.MCompare:
				a, b := regs[m.A], regs[m.B]
				if !a.IsInt() || !b.IsInt() {
					bail()
					return
				}
				regs[m.Dst] = object.FromBool(intCompare(m.Op, a.Int(), b.Int()))
			case jit.MIdent:
				regs[m.Dst] = object.FromBool(regs[m.A] == regs[m.B])
			case jit.MNotIdent:
				regs[m.Dst] = object.FromBool(regs[m.A] != regs[m.B])
			case jit.MIsNil:
				regs[m.Dst] = object.FromBool(regs[m.A] == object.Nil)
			case jit.MNotNil:
				regs[m.Dst] = object.FromBool(regs[m.A] != object.Nil)
			case jit.MNot:
				switch regs[m.A] {
				case object.True:
					regs[m.Dst] = object.False
				case object.False:
					regs[m.Dst] = object.True
				default:
					bail()
					return
				}
			case jit.MAt:
				v, ok := in.basicAt(regs[m.A], regs[m.B])
				if !ok {
					bail()
					return
				}
				regs[m.Dst] = v
			}
		}
		if term == jit.TermBranch {
			if c := regs[cond]; c != object.True && c != object.False {
				bail()
				return
			}
		}

		// Phase 2: accounting, then commit.
		bails = 0
		in.fuseCharge(n1, charge)
		for i := range tw {
			in.tmp.Set(p, int(tw[i].Slot), regs[tw[i].Reg])
		}
		for i := range iw {
			h.Store(p, in.receiver, int(iw[i].Slot), regs[iw[i].Reg])
		}
		sp := in.sp
		in.sp -= pops
		for i := range push {
			in.stk.Put(in.sp, regs[push[i]])
			in.sp++
		}
		in.stk.Clear(in.sp, sp)
		switch term {
		case jit.TermFall:
			in.pc = nextPC
		case jit.TermJump:
			in.pc = target
		case jit.TermBranch:
			if (regs[cond] == object.True) == wantTrue {
				in.pc = target
			} else {
				in.pc = nextPC
			}
		case jit.TermReturn:
			in.pc = nextPC
			in.returnValue(regs[ret], true)
		}
	}
}
