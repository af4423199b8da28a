// Package bytecode defines the instruction set of the Multiprocessor
// Smalltalk virtual machine: a stack bytecode in the tradition of the
// Smalltalk-80 Blue Book, regularized to one opcode byte plus explicit
// operand bytes. The interpreter dispatches on these opcodes; the
// compiler emits them; the disassembler renders them for the
// "decompile class" macro benchmark.
package bytecode

import (
	"fmt"
	"strconv"
)

// Op is an opcode.
type Op byte

// Opcodes. Operand layout is given in the comment: u8 is one unsigned
// byte, i8 one signed byte, i16/u16 two bytes big-endian.
const (
	// Pushes.
	OpPushSelf        Op = iota // push the receiver
	OpPushNil                   // push nil
	OpPushTrue                  // push true
	OpPushFalse                 // push false
	OpPushTemp                  // u8: push argument/temporary n
	OpPushInstVar               // u8: push receiver's instance variable n
	OpPushLiteral               // u8: push literal frame entry n
	OpPushGlobal                // u8: push value of Association literal n
	OpPushInt8                  // i8: push immediate SmallInteger
	OpPushThisContext           // push the active context
	OpDup                       // duplicate top of stack
	OpPop                       // discard top of stack

	// Stores.
	OpStoreTemp    // u8: store top into temporary n (keep on stack)
	OpStoreInstVar // u8
	OpStoreGlobal  // u8: store into Association literal n's value
	OpPopTemp      // u8: store top into temporary n and pop
	OpPopInstVar   // u8
	OpPopGlobal    // u8

	// Control.
	OpJump        // i16: relative jump from next instruction
	OpJumpFalse   // i16: pop; jump when false (must be a Boolean)
	OpJumpTrue    // i16: pop; jump when true
	OpPushBlock   // u8 nargs, u8 ntemps, u16 bodyLen: push a BlockContext
	OpReturnTop   // return top of stack from the home method
	OpReturnSelf  // return the receiver from the home method
	OpBlockReturn // return top of stack from the block to its caller

	// Sends.
	OpSend      // u8 selector-literal, u8 nargs
	OpSendSuper // u8 selector-literal, u8 nargs: lookup above methodClass

	// Special-selector sends (no operands). These are sends of fixed,
	// frequent selectors; the interpreter has inline fast paths and
	// falls back to a normal lookup when the fast path fails. They
	// also keep the common selectors out of literal frames, exactly as
	// the Smalltalk-80 special selector bytecodes do.
	OpSendAdd      // +
	OpSendSub      // -
	OpSendMul      // *
	OpSendDiv      // /
	OpSendIntDiv   // //
	OpSendMod      // \\
	OpSendLT       // <
	OpSendGT       // >
	OpSendLE       // <=
	OpSendGE       // >=
	OpSendEq       // =
	OpSendNE       // ~=
	OpSendBitAnd   // bitAnd:
	OpSendBitOr    // bitOr:
	OpSendBitXor   // bitXor:
	OpSendBitShift // bitShift:
	OpSendIdent    // ==
	OpSendNotIdent // ~~
	OpSendClass    // class
	OpSendSize     // size
	OpSendAt       // at:
	OpSendAtPut    // at:put:
	OpSendValue    // value
	OpSendValue1   // value:
	OpSendIsNil    // isNil
	OpSendNotNil   // notNil
	OpSendNot      // not
	OpSendNew      // new
	OpSendNewSize  // new:

	NumOps // sentinel
)

// FirstSpecialSend and LastSpecialSend bound the special-selector range.
const (
	FirstSpecialSend = OpSendAdd
	LastSpecialSend  = OpSendNewSize
)

// SpecialSend describes one special-selector send.
type SpecialSend struct {
	Selector string
	NumArgs  int
}

// SpecialSends maps Op-FirstSpecialSend to selector and arity.
var SpecialSends = [...]SpecialSend{
	{"+", 1}, {"-", 1}, {"*", 1}, {"/", 1}, {"//", 1}, {"\\\\", 1},
	{"<", 1}, {">", 1}, {"<=", 1}, {">=", 1}, {"=", 1}, {"~=", 1},
	{"bitAnd:", 1}, {"bitOr:", 1}, {"bitXor:", 1}, {"bitShift:", 1},
	{"==", 1}, {"~~", 1},
	{"class", 0}, {"size", 0},
	{"at:", 1}, {"at:put:", 2},
	{"value", 0}, {"value:", 1},
	{"isNil", 0}, {"notNil", 0}, {"not", 0},
	{"new", 0}, {"new:", 1},
}

// SpecialSendFor returns the special-send opcode for a selector, if any.
func SpecialSendFor(selector string) (Op, bool) {
	for i, s := range SpecialSends {
		if s.Selector == selector {
			return FirstSpecialSend + Op(i), true
		}
	}
	return 0, false
}

// IsSpecialSend reports whether op is a special-selector send.
func IsSpecialSend(op Op) bool {
	return op >= FirstSpecialSend && op <= LastSpecialSend
}

// IsSend reports whether op is any message-send instruction: a general
// send, a super send, or a special-selector send. Every IsSend opcode is
// a send site eligible for a per-site inline cache (the special sends
// reach the full lookup path only when their inline fast path fails).
func IsSend(op Op) bool {
	return op == OpSend || op == OpSendSuper || IsSpecialSend(op)
}

// SendSites scans code and returns the pc of every send instruction, in
// ascending order. The interpreter's inline-cache layer uses it to index
// a method's send sites.
func SendSites(code []byte) []int {
	var pcs []int
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		if IsSend(op) {
			pcs = append(pcs, pc)
		}
		pc += 1 + OperandLen(op)
	}
	return pcs
}

// CountSendSites is len(SendSites(code)), without the list: the compiler
// counts a method's send sites with it.
func CountSendSites(code []byte) int {
	n := 0
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		if IsSend(op) {
			n++
		}
		pc += 1 + OperandLen(op)
	}
	return n
}

// Special returns the selector/arity of a special send opcode.
func Special(op Op) SpecialSend { return SpecialSends[op-FirstSpecialSend] }

var opNames = map[Op]string{
	OpPushSelf: "pushSelf", OpPushNil: "pushNil", OpPushTrue: "pushTrue",
	OpPushFalse: "pushFalse", OpPushTemp: "pushTemp", OpPushInstVar: "pushInstVar",
	OpPushLiteral: "pushLiteral", OpPushGlobal: "pushGlobal", OpPushInt8: "pushInt",
	OpPushThisContext: "pushThisContext", OpDup: "dup", OpPop: "pop",
	OpStoreTemp: "storeTemp", OpStoreInstVar: "storeInstVar", OpStoreGlobal: "storeGlobal",
	OpPopTemp: "popTemp", OpPopInstVar: "popInstVar", OpPopGlobal: "popGlobal",
	OpJump: "jump", OpJumpFalse: "jumpFalse", OpJumpTrue: "jumpTrue",
	OpPushBlock: "pushBlock", OpReturnTop: "returnTop", OpReturnSelf: "returnSelf",
	OpBlockReturn: "blockReturn", OpSend: "send", OpSendSuper: "sendSuper",
}

// Name returns a mnemonic for op.
func (op Op) Name() string {
	if IsSpecialSend(op) {
		return "send " + Special(op).Selector
	}
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op%d", byte(op))
}

// OperandLen returns the number of operand bytes following op.
func OperandLen(op Op) int {
	switch op {
	case OpPushTemp, OpPushInstVar, OpPushLiteral, OpPushGlobal, OpPushInt8,
		OpStoreTemp, OpStoreInstVar, OpStoreGlobal,
		OpPopTemp, OpPopInstVar, OpPopGlobal:
		return 1
	case OpJump, OpJumpFalse, OpJumpTrue, OpSend, OpSendSuper:
		return 2
	case OpPushBlock:
		return 4
	default:
		return 0
	}
}

// Assembler builds a bytecode vector.
type Assembler struct {
	code []byte
}

// Code returns the assembled bytes.
func (a *Assembler) Code() []byte { return a.code }

// Len returns the current code length (the pc of the next instruction).
func (a *Assembler) Len() int { return len(a.code) }

// Grow makes room for n more bytes of code.
func (a *Assembler) Grow(n int) {
	if cap(a.code)-len(a.code) < n {
		code := make([]byte, len(a.code), len(a.code)+n)
		copy(code, a.code)
		a.code = code
	}
}

// Emit appends an opcode with no operands.
func (a *Assembler) Emit(op Op) { a.code = append(a.code, byte(op)) }

// EmitU8 appends an opcode with one unsigned byte operand.
func (a *Assembler) EmitU8(op Op, v int) {
	if v < 0 || v > 255 {
		panic(fmt.Sprintf("bytecode: operand %d out of u8 range for %s", v, op.Name()))
	}
	a.code = append(a.code, byte(op), byte(v))
}

// EmitI8 appends an opcode with one signed byte operand.
func (a *Assembler) EmitI8(op Op, v int) {
	if v < -128 || v > 127 {
		panic(fmt.Sprintf("bytecode: operand %d out of i8 range for %s", v, op.Name()))
	}
	a.code = append(a.code, byte(op), byte(int8(v)))
}

// EmitSend appends a send with a selector literal index and arity.
func (a *Assembler) EmitSend(op Op, lit, nargs int) {
	if lit < 0 || lit > 255 || nargs < 0 || nargs > 255 {
		panic("bytecode: send operands out of range")
	}
	a.code = append(a.code, byte(op), byte(lit), byte(nargs))
}

// EmitJump appends a jump with a placeholder offset and returns the
// position to patch.
func (a *Assembler) EmitJump(op Op) int {
	a.code = append(a.code, byte(op), 0, 0)
	return len(a.code) - 2
}

// PatchJump sets the jump at patchPos (returned by EmitJump) to land on
// the current end of code.
func (a *Assembler) PatchJump(patchPos int) {
	target := len(a.code)
	next := patchPos + 2 // pc after the operand bytes
	off := target - next
	a.patchOffset(patchPos, off)
}

// EmitJumpBack appends a backward jump to target (an existing pc).
func (a *Assembler) EmitJumpBack(op Op, target int) {
	a.code = append(a.code, byte(op), 0, 0)
	next := len(a.code)
	a.patchOffset(next-2, target-next)
}

func (a *Assembler) patchOffset(pos, off int) {
	if off < -32768 || off > 32767 {
		panic(fmt.Sprintf("bytecode: jump offset %d out of i16 range", off))
	}
	a.code[pos] = byte(uint16(off) >> 8)
	a.code[pos+1] = byte(uint16(off))
}

// EmitPushBlock appends a block-creation instruction; body bytes follow
// immediately. Call PatchBlock with the returned position once the body
// (ending in a BlockReturn) has been emitted.
func (a *Assembler) EmitPushBlock(nargs, ntemps int) int {
	if nargs > 255 || ntemps > 255 {
		panic("bytecode: too many block arguments")
	}
	a.code = append(a.code, byte(OpPushBlock), byte(nargs), byte(ntemps), 0, 0)
	return len(a.code) - 2
}

// PatchBlock fixes the body length of the block whose size field is at
// patchPos so that execution resumes after the body.
func (a *Assembler) PatchBlock(patchPos int) {
	bodyLen := len(a.code) - (patchPos + 2)
	if bodyLen < 0 || bodyLen > 65535 {
		panic("bytecode: block body out of range")
	}
	a.code[patchPos] = byte(uint16(bodyLen) >> 8)
	a.code[patchPos+1] = byte(uint16(bodyLen))
}

// U8 reads an unsigned byte operand at pc.
func U8(code []byte, pc int) int { return int(code[pc]) }

// I8 reads a signed byte operand at pc.
func I8(code []byte, pc int) int { return int(int8(code[pc])) }

// I16 reads a signed 16-bit big-endian operand at pc.
func I16(code []byte, pc int) int {
	return int(int16(uint16(code[pc])<<8 | uint16(code[pc+1])))
}

// U16 reads an unsigned 16-bit big-endian operand at pc.
func U16(code []byte, pc int) int {
	return int(uint16(code[pc])<<8 | uint16(code[pc+1]))
}

// LiteralResolver renders literal frame entry i for disassembly.
type LiteralResolver func(i int) string

// Disassemble renders code as one instruction per line. resolve may be
// nil, in which case literal indices print numerically. This is the
// engine behind the "decompile class" macro benchmark.
func Disassemble(code []byte, resolve LiteralResolver) string {
	return string(AppendDisassembly(nil, code, func(dst []byte, i int) []byte {
		if resolve == nil {
			return strconv.AppendInt(append(dst, "literal "...), int64(i), 10)
		}
		return append(dst, resolve(i)...)
	}))
}

// AppendDisassembly appends Disassemble's text for code to dst; lit
// appends the rendering of literal frame entry i. Into a reused dst it
// makes no Go garbage.
func AppendDisassembly(dst, code []byte, lit func(dst []byte, i int) []byte) []byte {
	num := func(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }
	pc := 0
	for pc < len(code) {
		op := Op(code[pc])
		for d := 1000; d > 1 && pc < d; d /= 10 { // "%4d"
			dst = append(dst, ' ')
		}
		dst = append(num(dst, pc), "  "...)
		opnd := pc + 1
		pc = opnd + OperandLen(op)
		if IsSpecialSend(op) {
			dst = append(append(dst, "send "...), Special(op).Selector...)
		} else {
			dst = append(dst, op.Name()...)
		}
		switch op {
		case OpPushTemp, OpStoreTemp, OpPopTemp, OpPushInstVar, OpStoreInstVar, OpPopInstVar:
			dst = num(append(dst, ' '), U8(code, opnd))
		case OpPushLiteral, OpPushGlobal, OpStoreGlobal, OpPopGlobal:
			dst = lit(append(dst, ' '), U8(code, opnd))
		case OpPushInt8:
			dst = num(append(dst, ' '), I8(code, opnd))
		case OpJump, OpJumpFalse, OpJumpTrue:
			dst = num(append(dst, " -> "...), pc+I16(code, opnd))
		case OpPushBlock:
			dst = num(append(dst, " nargs="...), U8(code, opnd))
			dst = num(append(dst, " ntemps="...), U8(code, opnd+1))
			dst = num(append(dst, " end="...), pc+U16(code, opnd+2))
		case OpSend, OpSendSuper:
			dst = lit(append(dst, ' '), U8(code, opnd))
			dst = append(num(append(dst, " ("...), U8(code, opnd+1)), " args)"...)
		}
		dst = append(dst, '\n')
	}
	return dst
}
