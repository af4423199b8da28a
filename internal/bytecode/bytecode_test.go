package bytecode

import (
	"fmt"
	"strings"
	"testing"
)

func TestSpecialSendLookup(t *testing.T) {
	op, ok := SpecialSendFor("+")
	if !ok || op != OpSendAdd {
		t.Fatalf("SpecialSendFor(+) = %v %v", op, ok)
	}
	if s := Special(op); s.Selector != "+" || s.NumArgs != 1 {
		t.Fatalf("Special(+) = %+v", s)
	}
	op, ok = SpecialSendFor("at:put:")
	if !ok || Special(op).NumArgs != 2 {
		t.Fatalf("at:put: wrong: %v %v", op, ok)
	}
	if _, ok := SpecialSendFor("frobnicate:"); ok {
		t.Fatal("unexpected special selector")
	}
	if !IsSpecialSend(OpSendAdd) || !IsSpecialSend(OpSendNewSize) || IsSpecialSend(OpSend) {
		t.Fatal("IsSpecialSend range wrong")
	}
}

func TestSpecialSendsTableComplete(t *testing.T) {
	want := int(LastSpecialSend-FirstSpecialSend) + 1
	if len(SpecialSends) != want {
		t.Fatalf("SpecialSends has %d entries, opcode range has %d", len(SpecialSends), want)
	}
	seen := map[string]bool{}
	for _, s := range SpecialSends {
		if s.Selector == "" || seen[s.Selector] {
			t.Fatalf("bad or duplicate selector %q", s.Selector)
		}
		seen[s.Selector] = true
	}
}

func TestOperandLenCoversAllOps(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		n := OperandLen(op)
		if n < 0 || n > 4 {
			t.Fatalf("OperandLen(%s) = %d", op.Name(), n)
		}
	}
}

func TestAssembleSimpleSequence(t *testing.T) {
	var a Assembler
	a.Emit(OpPushSelf)
	a.EmitI8(OpPushInt8, -5)
	a.Emit(OpSendAdd)
	a.Emit(OpReturnTop)
	code := a.Code()
	want := []byte{byte(OpPushSelf), byte(OpPushInt8), 0xFB, byte(OpSendAdd), byte(OpReturnTop)}
	if len(code) != len(want) {
		t.Fatalf("code = %v", code)
	}
	for i := range want {
		if code[i] != want[i] {
			t.Fatalf("code[%d] = %d, want %d", i, code[i], want[i])
		}
	}
	if I8(code, 2) != -5 {
		t.Fatalf("I8 = %d", I8(code, 2))
	}
}

func TestJumpPatchForward(t *testing.T) {
	var a Assembler
	a.Emit(OpPushTrue)
	patch := a.EmitJump(OpJumpFalse)
	a.Emit(OpPushNil)
	a.Emit(OpPop)
	a.PatchJump(patch)
	a.Emit(OpReturnSelf)
	code := a.Code()
	// jumpFalse at pc=1, operand at 2..3, next=4; target is 6 (returnSelf).
	if got := I16(code, 2); 4+got != 6 {
		t.Fatalf("jump lands at %d, want 6", 4+got)
	}
}

func TestJumpBack(t *testing.T) {
	var a Assembler
	top := a.Len()
	a.Emit(OpPushTrue)
	a.EmitJumpBack(OpJump, top)
	code := a.Code()
	next := 4 // jump at 1, operands 2..3
	if got := I16(code, 2); next+got != top {
		t.Fatalf("backward jump lands at %d, want %d", next+got, top)
	}
}

func TestPushBlockPatch(t *testing.T) {
	var a Assembler
	patch := a.EmitPushBlock(2, 1)
	a.Emit(OpPushTemp) // fake body
	a.Emit(OpBlockReturn)
	a.PatchBlock(patch)
	a.Emit(OpReturnSelf)
	code := a.Code()
	if U8(code, 1) != 2 || U8(code, 2) != 1 {
		t.Fatal("block header wrong")
	}
	body := U16(code, 3)
	// Body starts at 5 and is 2 bytes; execution resumes at 7.
	if 5+body != 7 {
		t.Fatalf("block end = %d, want 7", 5+body)
	}
}

func TestOperandRangePanics(t *testing.T) {
	cases := []func(a *Assembler){
		func(a *Assembler) { a.EmitU8(OpPushTemp, 256) },
		func(a *Assembler) { a.EmitU8(OpPushTemp, -1) },
		func(a *Assembler) { a.EmitI8(OpPushInt8, 128) },
		func(a *Assembler) { a.EmitI8(OpPushInt8, -129) },
		func(a *Assembler) { a.EmitSend(OpSend, 300, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			var a Assembler
			f(&a)
		}()
	}
}

func TestDisassembleRendersEveryInstruction(t *testing.T) {
	var a Assembler
	a.Emit(OpPushSelf)
	a.EmitU8(OpPushTemp, 1)
	a.EmitU8(OpPushLiteral, 0)
	a.EmitSend(OpSend, 1, 2)
	a.Emit(OpSendAdd)
	patch := a.EmitJump(OpJump)
	a.PatchJump(patch)
	bp := a.EmitPushBlock(0, 0)
	a.Emit(OpBlockReturn)
	a.PatchBlock(bp)
	a.Emit(OpReturnTop)

	out := Disassemble(a.Code(), func(i int) string { return []string{"#foo", "#bar:baz:"}[i] })
	for _, want := range []string{"pushSelf", "pushTemp 1", "pushLiteral #foo",
		"send #bar:baz: (2 args)", "send +", "jump", "pushBlock", "blockReturn", "returnTop"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	if Disassemble(a.Code(), nil) == "" {
		t.Error("nil resolver produced empty output")
	}
}

func TestI16RoundTrip(t *testing.T) {
	var a Assembler
	a.EmitJumpBack(OpJump, -1000) // arbitrary: offset = -1000 - 3
	code := a.Code()
	if got := I16(code, 1); got != -1003 {
		t.Fatalf("I16 = %d, want -1003", got)
	}
}

func TestOpNames(t *testing.T) {
	if OpPushSelf.Name() != "pushSelf" {
		t.Fatal("name wrong")
	}
	if OpSendAdd.Name() != "send +" {
		t.Fatalf("special name = %q", OpSendAdd.Name())
	}
	if NumOps.Name() == "" {
		t.Fatal("unknown op has empty name")
	}
}

// TestAppendDisassemblyMatchesFormatted holds the append-style
// disassembler to the fmt-formatted rendering it replaced, over every
// opcode with several operand patterns, pcs past 9, 99 and 999 (the %4d
// column), negative offsets, and both resolvers.
func TestAppendDisassemblyMatchesFormatted(t *testing.T) {
	var code []byte
	for rep := 0; rep < 40; rep++ {
		for op := Op(0); op < NumOps; op++ {
			code = append(code, byte(op))
			for k := 0; k < OperandLen(op); k++ {
				code = append(code, byte(rep*37+k*101))
			}
		}
	}
	resolve := func(i int) string { return fmt.Sprintf("#lit%d", i) }
	for _, r := range []LiteralResolver{resolve, nil} {
		if got, want := Disassemble(code, r), disassembleFormatted(code, r); got != want {
			t.Fatalf("Disassemble differs from the formatted rendering:\n%s\nwant:\n%s", got, want)
		}
	}
}

// disassembleFormatted is the fmt-based rendering Disassemble must match.
func disassembleFormatted(code []byte, resolve LiteralResolver) string {
	var b strings.Builder
	lit := func(i int) string {
		if resolve == nil {
			return fmt.Sprintf("literal %d", i)
		}
		return resolve(i)
	}
	pc := 0
	for pc < len(code) {
		op := Op(code[pc])
		fmt.Fprintf(&b, "%4d  ", pc)
		opnd := pc + 1
		pc = opnd + OperandLen(op)
		switch op {
		case OpPushTemp, OpStoreTemp, OpPopTemp, OpPushInstVar, OpStoreInstVar, OpPopInstVar:
			fmt.Fprintf(&b, "%s %d", op.Name(), U8(code, opnd))
		case OpPushLiteral, OpPushGlobal, OpStoreGlobal, OpPopGlobal:
			fmt.Fprintf(&b, "%s %s", op.Name(), lit(U8(code, opnd)))
		case OpPushInt8:
			fmt.Fprintf(&b, "%s %d", op.Name(), I8(code, opnd))
		case OpJump, OpJumpFalse, OpJumpTrue:
			fmt.Fprintf(&b, "%s -> %d", op.Name(), pc+I16(code, opnd))
		case OpPushBlock:
			fmt.Fprintf(&b, "%s nargs=%d ntemps=%d end=%d", op.Name(), U8(code, opnd), U8(code, opnd+1), pc+U16(code, opnd+2))
		case OpSend, OpSendSuper:
			fmt.Fprintf(&b, "%s %s (%d args)", op.Name(), lit(U8(code, opnd)), U8(code, opnd+1))
		default:
			b.WriteString(op.Name())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
