package compiler

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mst/internal/bytecode"
)

func testEnv() MapEnv {
	return MapEnv{
		InstVars: []string{"x", "y"},
		Globals:  map[string]bool{"Transcript": true, "Smalltalk": true, "Object": true},
	}
}

func compileM(t *testing.T, src string) *Method {
	t.Helper()
	m, err := CompileMethod(src, testEnv())
	if err != nil {
		t.Fatalf("CompileMethod(%q): %v", src, err)
	}
	return m
}

func ops(m *Method) []bytecode.Op {
	var out []bytecode.Op
	pc := 0
	for pc < len(m.Code) {
		op := bytecode.Op(m.Code[pc])
		out = append(out, op)
		pc += 1 + bytecode.OperandLen(op)
	}
	return out
}

func hasOp(m *Method, want bytecode.Op) bool {
	for _, op := range ops(m) {
		if op == want {
			return true
		}
	}
	return false
}

func TestGenReturnConstant(t *testing.T) {
	m := compileM(t, "three ^3")
	want := []bytecode.Op{bytecode.OpPushInt8, bytecode.OpReturnTop}
	got := ops(m)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ops = %v", got)
	}
	if m.NumArgs != 0 || m.NumTemps != 0 || !m.Clean {
		t.Fatalf("method = %+v", m)
	}
}

func TestGenFallsOffEndReturnsSelf(t *testing.T) {
	m := compileM(t, "doNothing self size")
	got := ops(m)
	if got[len(got)-1] != bytecode.OpReturnSelf {
		t.Fatalf("ops = %v", got)
	}
}

func TestGenSpecialSends(t *testing.T) {
	m := compileM(t, "test ^1 + 2 * 3")
	got := ops(m)
	want := []bytecode.Op{bytecode.OpPushInt8, bytecode.OpPushInt8, bytecode.OpSendAdd,
		bytecode.OpPushInt8, bytecode.OpSendMul, bytecode.OpReturnTop}
	if len(got) != len(want) {
		t.Fatalf("ops = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(m.Literals) != 0 {
		t.Fatalf("special sends should use no literals: %v", m.Literals)
	}
}

func TestGenGenericSendUsesLiteral(t *testing.T) {
	m := compileM(t, "test ^self frobnicate: 1 with: 2")
	if !hasOp(m, bytecode.OpSend) {
		t.Fatal("no generic send emitted")
	}
	if len(m.Literals) != 1 || m.Literals[0].Kind != LitSymbol || m.Literals[0].Str != "frobnicate:with:" {
		t.Fatalf("literals = %+v", m.Literals)
	}
}

func TestGenVariableKinds(t *testing.T) {
	m := compileM(t, "test: a | t | t := a. x := t. Transcript")
	if !hasOp(m, bytecode.OpPushTemp) || !hasOp(m, bytecode.OpPopTemp) ||
		!hasOp(m, bytecode.OpPopInstVar) || !hasOp(m, bytecode.OpPushGlobal) {
		t.Fatalf("ops = %v", ops(m))
	}
	if m.NumArgs != 1 || m.NumTemps != 2 {
		t.Fatalf("args/temps = %d/%d", m.NumArgs, m.NumTemps)
	}
}

func TestGenAssignmentAsExpressionKeepsValue(t *testing.T) {
	m := compileM(t, "test | t | ^t := 5")
	got := ops(m)
	want := []bytecode.Op{bytecode.OpPushInt8, bytecode.OpStoreTemp, bytecode.OpReturnTop}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ops = %v", got)
		}
	}
}

func TestGenUndeclaredVariableError(t *testing.T) {
	if _, err := CompileMethod("test ^zork", testEnv()); err == nil {
		t.Fatal("undeclared variable compiled")
	}
	if _, err := CompileMethod("test zork := 1", testEnv()); err == nil {
		t.Fatal("undeclared assignment compiled")
	}
}

func TestGenIfTrueInlines(t *testing.T) {
	m := compileM(t, "test ^x > 0 ifTrue: ['pos'] ifFalse: ['neg']")
	if hasOp(m, bytecode.OpSend) || hasOp(m, bytecode.OpPushBlock) {
		t.Fatalf("ifTrue:ifFalse: not inlined: %v", ops(m))
	}
	if !hasOp(m, bytecode.OpJumpFalse) || !hasOp(m, bytecode.OpJump) {
		t.Fatalf("no jumps: %v", ops(m))
	}
	if !m.Clean {
		t.Fatal("inlined blocks should leave the method clean")
	}
}

func TestGenIfWithoutElsePushesNil(t *testing.T) {
	m := compileM(t, "test ^x > 0 ifTrue: [1]")
	if !hasOp(m, bytecode.OpPushNil) {
		t.Fatalf("no nil for missing else: %v", ops(m))
	}
}

func TestGenWhileTrueIsPureJumps(t *testing.T) {
	// The paper's idle Process: [true] whileTrue — must compile to
	// bytecode that "neither looks up messages nor allocates memory".
	m := compileM(t, "idle [true] whileTrue")
	for _, op := range ops(m) {
		switch op {
		case bytecode.OpSend, bytecode.OpSendSuper, bytecode.OpPushBlock:
			t.Fatalf("idle loop contains %v: %v", op.Name(), ops(m))
		}
	}
	if !hasOp(m, bytecode.OpJumpFalse) {
		t.Fatalf("no loop: %v", ops(m))
	}
}

func TestGenWhileTrueWithBody(t *testing.T) {
	m := compileM(t, "test | i | i := 0. [i < 10] whileTrue: [i := i + 1]. ^i")
	if hasOp(m, bytecode.OpPushBlock) {
		t.Fatalf("whileTrue: not inlined: %v", ops(m))
	}
}

func TestGenAndOrShortCircuit(t *testing.T) {
	m := compileM(t, "test ^(x > 0 and: [y > 0]) or: [x = y]")
	if hasOp(m, bytecode.OpPushBlock) {
		t.Fatalf("and:/or: not inlined: %v", ops(m))
	}
	if !hasOp(m, bytecode.OpJumpFalse) || !hasOp(m, bytecode.OpJumpTrue) {
		t.Fatalf("ops = %v", ops(m))
	}
}

func TestGenToDoInlines(t *testing.T) {
	m := compileM(t, "test | s | s := 0. 1 to: 10 do: [:i | s := s + i]. ^s")
	if hasOp(m, bytecode.OpPushBlock) || hasOp(m, bytecode.OpSend) {
		t.Fatalf("to:do: not inlined: %v", ops(m))
	}
	// s, hidden i, hidden limit
	if m.NumTemps != 3 {
		t.Fatalf("temps = %d, want 3", m.NumTemps)
	}
}

func TestGenToByDoNegativeStep(t *testing.T) {
	m := compileM(t, "test | s | s := 0. 10 to: 1 by: -1 do: [:i | s := s + i]. ^s")
	if hasOp(m, bytecode.OpPushBlock) {
		t.Fatalf("to:by:do: not inlined: %v", ops(m))
	}
	if !hasOp(m, bytecode.OpSendGE) {
		t.Fatalf("negative step must compare with >=: %v", ops(m))
	}
}

func TestGenNonLiteralBlockFallsBackToSend(t *testing.T) {
	m := compileM(t, "test: aBlock ^x > 0 ifTrue: aBlock")
	if !hasOp(m, bytecode.OpSend) {
		t.Fatalf("non-literal block arg must be a real send: %v", ops(m))
	}
}

func TestGenRealBlock(t *testing.T) {
	m := compileM(t, "test ^[:a | a + 1]")
	if !hasOp(m, bytecode.OpPushBlock) || !hasOp(m, bytecode.OpBlockReturn) {
		t.Fatalf("ops = %v", ops(m))
	}
	if m.Clean {
		t.Fatal("method with block must not be clean")
	}
	if m.NumTemps != 1 {
		t.Fatalf("block arg should use a home temp: %d", m.NumTemps)
	}
}

func TestGenBlockNonLocalReturn(t *testing.T) {
	m := compileM(t, "test self do: [:e | e > 0 ifTrue: [^e]]. ^nil")
	// The ^e inside the block must be ReturnTop (non-local), not
	// BlockReturn.
	if !hasOp(m, bytecode.OpReturnTop) {
		t.Fatalf("ops = %v", ops(m))
	}
}

func TestGenCascade(t *testing.T) {
	m := compileM(t, "test Transcript show: 'a'; cr; show: 'b'")
	got := ops(m)
	dups := 0
	for _, op := range got {
		if op == bytecode.OpDup {
			dups++
		}
	}
	if dups != 2 {
		t.Fatalf("cascade dups = %d, want 2: %v", dups, got)
	}
}

func TestGenSuperSend(t *testing.T) {
	m := compileM(t, "test ^super size")
	if !hasOp(m, bytecode.OpSendSuper) {
		t.Fatalf("ops = %v", ops(m))
	}
	// Even special selectors go through the literal frame with super.
	m = compileM(t, "test ^super + 1")
	if !hasOp(m, bytecode.OpSendSuper) || hasOp(m, bytecode.OpSendAdd) {
		t.Fatalf("super + must not use the special send: %v", ops(m))
	}
}

func TestGenLiteralDeduplication(t *testing.T) {
	m := compileM(t, "test ^self foo: #bar with: #bar with: 'baz' with: 'baz'")
	syms, strs := 0, 0
	for _, l := range m.Literals {
		switch l.Kind {
		case LitSymbol:
			if l.Str == "bar" {
				syms++
			}
		case LitString:
			strs++
		}
	}
	if syms != 1 || strs != 1 {
		t.Fatalf("literals not deduplicated: %+v", m.Literals)
	}

	// Every kind shares with its equal and with nothing else: same text
	// in another kind, nested arrays that differ in one leaf.
	m = compileM(t, `test ^Object with: 2.5 with: 2.5 with: 'bar' with: #bar with: $b
		with: #(1 $a (2 3)) with: #(1 $a (2 3)) with: #(1 $a (2 4)) with: #(1 #a (2 3)) with: 1000 with: 1000`)
	kinds := map[LitKind]int{}
	for _, l := range m.Literals {
		kinds[l.Kind]++
	}
	want := map[LitKind]int{LitFloat: 1, LitString: 1, LitSymbol: 2, LitChar: 1, LitArray: 3, LitInt: 1, LitGlobal: 1}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("literal kinds %v, want %v: %+v", kinds, want, m.Literals)
	}
	// A float is keyed by its bits: the two zeros stay apart, a NaN
	// shares with itself.
	zero, nan := Lit{Kind: LitFloat}, Lit{Kind: LitFloat, Flt: math.NaN()}
	if negZero := (Lit{Kind: LitFloat, Flt: math.Copysign(0, -1)}); zero.key() == negZero.key() {
		t.Fatal("0.0 and -0.0 share a literal slot")
	}
	if nan.key() != nan.key() {
		t.Fatal("a NaN literal never shares")
	}
}

func TestGenLargeIntegerLiteral(t *testing.T) {
	m := compileM(t, "test ^123456789")
	if len(m.Literals) != 1 || m.Literals[0].Kind != LitInt || m.Literals[0].Int != 123456789 {
		t.Fatalf("literals = %+v", m.Literals)
	}
	if !hasOp(m, bytecode.OpPushLiteral) {
		t.Fatalf("ops = %v", ops(m))
	}
}

func TestGenPrimitiveMethod(t *testing.T) {
	m := compileM(t, "basicNew <primitive: 70> ^self error: 'allocation failed'")
	if m.Primitive != 70 {
		t.Fatalf("primitive = %d", m.Primitive)
	}
	// The fallback code must still be present.
	if !hasOp(m, bytecode.OpSend) {
		t.Fatalf("no fallback code: %v", ops(m))
	}
}

func TestGenMaxStackSimple(t *testing.T) {
	m := compileM(t, "test ^1 + 2 + 3")
	if m.MaxStack != 2 {
		t.Fatalf("MaxStack = %d, want 2", m.MaxStack)
	}
	m = compileM(t, "test ^self foo: 1 bar: 2 baz: 3")
	if m.MaxStack != 4 {
		t.Fatalf("MaxStack = %d, want 4", m.MaxStack)
	}
}

func TestGenThisContextMarksUnclean(t *testing.T) {
	m := compileM(t, "test ^thisContext")
	if m.Clean {
		t.Fatal("thisContext method must not be clean")
	}
}

func TestGenExpression(t *testing.T) {
	m, err := CompileExpression("3 + 4", testEnv())
	if err != nil {
		t.Fatal(err)
	}
	got := ops(m)
	if got[len(got)-1] != bytecode.OpReturnTop {
		t.Fatalf("expression must return its value: %v", got)
	}
}

func TestGenRepeatLoop(t *testing.T) {
	m := compileM(t, "test [self size. x > 3 ifTrue: [^x]] repeat")
	if hasOp(m, bytecode.OpPushBlock) {
		t.Fatalf("repeat not inlined: %v", ops(m))
	}
}

func TestGenDisassemblesCleanly(t *testing.T) {
	m := compileM(t, "test: n | s | s := 0. 1 to: n do: [:i | s := s + i]. ^s")
	text := bytecode.Disassemble(m.Code, func(i int) string { return m.Literals[i].Str })
	if !strings.Contains(text, "jump") {
		t.Fatalf("disassembly:\n%s", text)
	}
}

func TestGenInstVarAccess(t *testing.T) {
	m := compileM(t, "getY ^y")
	got := ops(m)
	if got[0] != bytecode.OpPushInstVar || m.Code[1] != 1 {
		t.Fatalf("ops = %v code=%v", got, m.Code)
	}
}

func TestGenNestedBlocks(t *testing.T) {
	m := compileM(t, "test ^[:a | [:b | a + b]]")
	count := 0
	for _, op := range ops(m) {
		if op == bytecode.OpPushBlock {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("nested blocks = %d, want 2: %v", count, ops(m))
	}
	if m.NumTemps != 2 {
		t.Fatalf("temps = %d, want 2 (both block args hoisted)", m.NumTemps)
	}
}

func TestGenInlinedBlockWithTemps(t *testing.T) {
	m := compileM(t, "test ^x > 0 ifTrue: [| t | t := x + 1. t * 2]")
	if hasOp(m, bytecode.OpPushBlock) {
		t.Fatalf("inlined block with temps created a real block: %v", ops(m))
	}
	if m.NumTemps != 1 {
		t.Fatalf("temps = %d, want 1 (inlined block temp)", m.NumTemps)
	}
}

func TestGenNestedInlining(t *testing.T) {
	src := `test | s | s := 0.
		1 to: 10 do: [:i |
			i even ifTrue: [
				| j | j := i.
				[j > 0] whileTrue: [s := s + j. j := j - 1]]].
		^s`
	m := compileM(t, src)
	if hasOp(m, bytecode.OpPushBlock) {
		t.Fatalf("nested control flow not fully inlined: %v", ops(m))
	}
	if !m.Clean {
		t.Fatal("fully inlined method should be clean")
	}
}

func TestGenCascadeValueIsLastMessage(t *testing.T) {
	// Cascade compiles receiver once and leaves the last send's value.
	m := compileM(t, "test ^self foo: 1; bar; baz: 2")
	code := ops(m)
	if code[len(code)-1] != bytecode.OpReturnTop {
		t.Fatalf("ops = %v", code)
	}
	pops := 0
	for _, op := range code {
		if op == bytecode.OpPop {
			pops++
		}
	}
	if pops != 2 { // two non-final cascade messages discarded
		t.Fatalf("pops = %d, want 2: %v", pops, code)
	}
}

func TestGenLiteralArrayWithNegatives(t *testing.T) {
	m := compileM(t, "test ^#(-1 -200 3)")
	if len(m.Literals) != 1 || m.Literals[0].Kind != LitArray {
		t.Fatalf("literals = %+v", m.Literals)
	}
	arr := m.Literals[0].Arr
	if arr[0].Int != -1 || arr[1].Int != -200 || arr[2].Int != 3 {
		t.Fatalf("array = %+v", arr)
	}
}

func TestGenReturnOnlyStatement(t *testing.T) {
	m := compileM(t, "test ^self")
	got := ops(m)
	if len(got) != 2 || got[0] != bytecode.OpPushSelf || got[1] != bytecode.OpReturnTop {
		t.Fatalf("ops = %v", got)
	}
}

func TestGenCommentsIgnored(t *testing.T) {
	m := compileM(t, `test "header comment" | a | "temp comment" a := 1. "trailing" ^a`)
	if m.NumTemps != 1 {
		t.Fatalf("temps = %d", m.NumTemps)
	}
}

func TestGenBlockReturningBlock(t *testing.T) {
	m := compileM(t, "test ^[[42]]")
	count := 0
	for _, op := range ops(m) {
		if op == bytecode.OpPushBlock {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("blocks = %d", count)
	}
}

func TestGenManyLiteralsError(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("test ")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "self foo%d. ", i)
	}
	if _, err := CompileMethod(sb.String(), testEnv()); err == nil {
		t.Fatal("300 distinct selectors fit in a byte-indexed literal frame?")
	}
}

func TestGenWhileTrueNonLiteralReceiverFallsBack(t *testing.T) {
	m := compileM(t, "test: b b whileTrue: [self foo]")
	// Receiver is a variable: must be a real send of whileTrue:.
	found := false
	for _, l := range m.Literals {
		if l.Kind == LitSymbol && l.Str == "whileTrue:" {
			found = true
		}
	}
	if !found {
		t.Fatalf("whileTrue: on variable not sent: %v", m.Literals)
	}
}

func TestGenIfNonBlockArgumentsFallBack(t *testing.T) {
	m := compileM(t, "test: b ^x > 0 ifTrue: b ifFalse: [2]")
	found := false
	for _, l := range m.Literals {
		if l.Kind == LitSymbol && l.Str == "ifTrue:ifFalse:" {
			found = true
		}
	}
	if !found {
		t.Fatal("mixed block/non-block ifTrue:ifFalse: should be a real send")
	}
}
