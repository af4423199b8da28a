// Package jit is the target-independent half of the msjit hot-method
// tier: it decodes a method's bytecode once, up front, into a flat
// instruction list — operands widened, jump targets resolved, uncommon
// opcodes marked — and plans which straight-line groups of that list
// are worth fusing into superinstructions (fuse.go). The interpreter
// package binds each planned group to one closure at the group's head
// pc; every other pc keeps running the interpreter's step() switch,
// which is the only definition of what a singleton bytecode does.
//
// The split keeps the abstract semantics decoupled from the execution
// substrate (Marr et al.): everything that affects virtual time lives
// here, flows from *firefly.Costs, and is identical to what the
// interpreter charges — a compiled method is bit-identical in virtual
// time and pays off only in host nanoseconds. The msvet costcharge rule
// enforces that no literal tick constant ever enters this package.
package jit

import (
	"fmt"

	"mst/internal/bytecode"
	"mst/internal/firefly"
)

// CompileThreshold is how many context loads make a method hot. The
// count advances every time one of the method's contexts becomes the
// running context while its plan is resident — an activation, but also
// every return into the method and every process switch back to it — so
// it is not an invocation count: a method that evaluates one block twice
// has been loaded more than twice and is compiled. Compilation is a
// one-time cost per method (compiled bodies capture no heap addresses
// and persist across scavenges), so the threshold is deliberately
// aggressive; what it keeps interpreted is straight-line code that is
// never re-entered. DoIts are exempt however often they are loaded: one
// is materialized, run once and dropped, so nothing would reuse its
// compile.
const CompileThreshold = 2

// DeoptReason says why compiled code was abandoned mid-method and
// execution fell back to the interpreter at a bytecode boundary.
type DeoptReason uint8

const (
	// DeoptMegamorphic: an inline-cache site of the running method was
	// retired megamorphic; the method is no longer polymorphic-stable.
	DeoptMegamorphic DeoptReason = iota
	// DeoptDecompile: the decompiler/debugger attached to the method.
	DeoptDecompile
	// DeoptSnapshot: the image is being snapshotted; every context must
	// be parked in a pure interpreter state.
	DeoptSnapshot
	// DeoptUncommon: an uncommon bytecode (thisContext) executed inside a
	// compiled method; the interpreter performs the operation, pins the
	// method, and bails.
	DeoptUncommon
	// DeoptDNU: the running compiled method hit doesNotUnderstand:.
	DeoptDNU

	numReasons
)

var reasonNames = [numReasons]string{
	"megamorphic", "decompile", "snapshot", "uncommon-bytecode", "dnu",
}

func (r DeoptReason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("DeoptReason(%d)", int(r))
}

// Instr is one decoded bytecode instance. Operands are widened to ints
// and jump targets resolved to absolute pcs, so the fusion analysis
// never re-reads the code bytes.
type Instr struct {
	PC   int         // pc of the opcode byte
	Op   bytecode.Op // the opcode
	A, B int         // u8 operands (temp/ivar/literal index; nargs, firstArg)
	Next int         // pc of the following instruction
	// Target is the resolved jump target (OpJump*), or the pc just past
	// the block body (OpPushBlock, whose body the block executes later).
	Target int
	// Uncommon marks opcodes that deopt when run inside a compiled method
	// (thisContext); no fused group contains one.
	Uncommon bool
}

// Program is the compiled template of one method: its instructions in
// pc order. CodeLen is the bytecode length, so the execution tier can
// size its pc-indexed closure array (one entry per fused-group head).
type Program struct {
	Instrs  []Instr
	CodeLen int
	// DispatchCost is the uniform per-bytecode dispatch charge from the
	// cost table (Specialize). The tiers share one cost model, so a
	// compiled bytecode advances the virtual clock exactly as an
	// interpreted one does.
	DispatchCost firefly.Time
}

// Compile decodes code into a Program. It fails — making the method
// ineligible for the compiled tier — on any opcode outside the known
// set, on truncated operands, and on jump targets outside the method:
// such methods stay on the interpreter, which shares the error paths
// with the debugger.
func Compile(code []byte) (*Program, error) {
	p := &Program{CodeLen: len(code)}
	for pc := 0; pc < len(code); {
		op := bytecode.Op(code[pc])
		if op >= bytecode.NumOps {
			return nil, fmt.Errorf("jit: bad opcode %d at pc %d", op, pc)
		}
		opLen := 1 + bytecode.OperandLen(op)
		if pc+opLen > len(code) {
			return nil, fmt.Errorf("jit: truncated operands for %s at pc %d", op.Name(), pc)
		}
		ins := Instr{PC: pc, Op: op, Next: pc + opLen}
		switch op {
		case bytecode.OpPushTemp, bytecode.OpPushInstVar, bytecode.OpPushLiteral,
			bytecode.OpPushGlobal, bytecode.OpStoreTemp, bytecode.OpStoreInstVar,
			bytecode.OpStoreGlobal, bytecode.OpPopTemp, bytecode.OpPopInstVar,
			bytecode.OpPopGlobal:
			ins.A = int(code[pc+1])
		case bytecode.OpPushInt8:
			ins.A = int(int8(code[pc+1]))
		case bytecode.OpJump, bytecode.OpJumpFalse, bytecode.OpJumpTrue:
			off := int(int16(uint16(code[pc+1])<<8 | uint16(code[pc+2])))
			ins.Target = ins.Next + off
			if ins.Target < 0 || ins.Target > len(code) {
				return nil, fmt.Errorf("jit: jump target %d out of range at pc %d", ins.Target, pc)
			}
		case bytecode.OpPushBlock:
			ins.A = int(code[pc+1]) // nargs
			ins.B = int(code[pc+2]) // firstArg
			bodyLen := int(uint16(code[pc+3])<<8 | uint16(code[pc+4]))
			ins.Target = ins.Next + bodyLen // pc just past the block body
			if ins.Target > len(code) {
				return nil, fmt.Errorf("jit: block body runs past end at pc %d", pc)
			}
		case bytecode.OpSend, bytecode.OpSendSuper:
			ins.A = int(code[pc+1]) // selector literal index
			ins.B = int(code[pc+2]) // nargs
		case bytecode.OpPushThisContext:
			// thisContext reifies the interpreter state: it ends any
			// fused group, and running it deoptimizes the method.
			ins.Uncommon = true
		}
		p.Instrs = append(p.Instrs, ins)
		pc += opLen
	}
	return p, nil
}

// Specialize resolves the per-bytecode dispatch charge from the shared
// cost table. This is the only place the tier derives a tick value, and
// it comes exclusively from costs — the msvet costcharge rule rejects
// any literal constant here.
func (p *Program) Specialize(costs *firefly.Costs) {
	p.DispatchCost = costs.Bytecode
}
