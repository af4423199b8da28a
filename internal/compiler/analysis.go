package compiler

import (
	"fmt"

	"mst/internal/bytecode"
)

// maxStack computes the maximum operand-stack depth of code[start:end)
// beginning at startDepth, by abstract interpretation over the control-
// flow graph. Structured bytecode has a unique static depth at every pc;
// a mismatch indicates a code-generator bug and is reported as an error.
// Block bodies are analyzed from depth 0 (they run on their own
// context's stack); their depth is folded into the result, which makes
// the caller's context sizing conservative.
//
// depths, as long as code and zero on the first call, records the depth
// on entry to each visited pc plus one. A block body's pcs are visited
// only by its own analysis, so one table serves every nesting level.
func maxStack(code []byte, start, end, startDepth int, depths []int32) (int, error) {
	max := startDepth
	type item struct{ pc, d int }
	work := []item{{start, startDepth}}

	// trace follows one straight-line path, pushing branch targets onto
	// the worklist, until it reaches a terminal, the range end, or an
	// already-visited pc.
	trace := func(pc, d int) error {
		for {
			if pc == end {
				return nil
			}
			if pc < start || pc > end {
				return fmt.Errorf("pc %d escapes range [%d,%d)", pc, start, end)
			}
			if prev := int(depths[pc]) - 1; prev >= 0 {
				if prev != d {
					return fmt.Errorf("inconsistent stack depth at pc %d: %d vs %d", pc, prev, d)
				}
				return nil
			}
			depths[pc] = int32(d + 1)

			op := bytecode.Op(code[pc])
			opnd := pc + 1
			next := opnd + bytecode.OperandLen(op)

			switch {
			case op == bytecode.OpPushSelf, op == bytecode.OpPushNil,
				op == bytecode.OpPushTrue, op == bytecode.OpPushFalse,
				op == bytecode.OpPushTemp, op == bytecode.OpPushInstVar,
				op == bytecode.OpPushLiteral, op == bytecode.OpPushGlobal,
				op == bytecode.OpPushInt8, op == bytecode.OpPushThisContext,
				op == bytecode.OpDup:
				d++
			case op == bytecode.OpPop, op == bytecode.OpPopTemp,
				op == bytecode.OpPopInstVar, op == bytecode.OpPopGlobal:
				d--
			case op == bytecode.OpStoreTemp, op == bytecode.OpStoreInstVar,
				op == bytecode.OpStoreGlobal:
				// depth unchanged
			case op == bytecode.OpJump:
				pc = next + bytecode.I16(code, opnd)
				continue
			case op == bytecode.OpJumpFalse, op == bytecode.OpJumpTrue:
				d--
				if d < 0 {
					return fmt.Errorf("stack underflow at pc %d", pc)
				}
				work = append(work, item{next + bytecode.I16(code, opnd), d})
				pc = next
				continue
			case op == bytecode.OpPushBlock:
				bodyLen := bytecode.U16(code, opnd+2)
				sub, err := maxStack(code, next, next+bodyLen, 0, depths)
				if err != nil {
					return err
				}
				if sub > max {
					max = sub
				}
				d++
				if d > max {
					max = d
				}
				pc = next + bodyLen
				continue
			case op == bytecode.OpReturnTop, op == bytecode.OpBlockReturn:
				if d < 1 {
					return fmt.Errorf("return with empty stack at pc %d", pc)
				}
				return nil
			case op == bytecode.OpReturnSelf:
				return nil
			case op == bytecode.OpSend, op == bytecode.OpSendSuper:
				d -= bytecode.U8(code, opnd+1)
			case bytecode.IsSpecialSend(op):
				d -= bytecode.Special(op).NumArgs
			default:
				return fmt.Errorf("unknown opcode %d at pc %d", op, pc)
			}
			if d < 0 {
				return fmt.Errorf("stack underflow at pc %d", pc)
			}
			if d > max {
				max = d
			}
			pc = next
		}
	}

	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if err := trace(it.pc, it.d); err != nil {
			return 0, err
		}
	}
	return max, nil
}
