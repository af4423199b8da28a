package image

import (
	"strings"
	"testing"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/interp"
)

func testImage(t *testing.T, nprocs int) *interp.VM {
	t.Helper()
	hcfg := heap.DefaultConfig()
	hcfg.OldWords = 2 << 20
	hcfg.EdenWords = 32 << 10
	hcfg.SurvivorWords = 8 << 10
	vcfg := interp.DefaultConfig()
	vm, err := BootOn(firefly.New(nprocs, firefly.DefaultCosts()), hcfg, vcfg)
	if err != nil {
		t.Fatalf("BootOn: %v", err)
	}
	vm.M.SetTimeLimit(1 << 40)
	t.Cleanup(vm.M.Shutdown)
	return vm
}

// sharedImage boots one image for the read-only print tests.
var sharedVM *interp.VM

func sharedImage(t *testing.T) *interp.VM {
	t.Helper()
	if sharedVM == nil {
		hcfg := heap.DefaultConfig()
		hcfg.OldWords = 2 << 20
		hcfg.EdenWords = 32 << 10
		hcfg.SurvivorWords = 8 << 10
		vm, err := BootOn(firefly.New(2, firefly.DefaultCosts()), hcfg, interp.DefaultConfig())
		if err != nil {
			t.Fatalf("BootOn: %v", err)
		}
		sharedVM = vm
	}
	return sharedVM
}

func wantPrint(t *testing.T, vm *interp.VM, src, want string) {
	t.Helper()
	got, err := EvaluateToString(vm, src)
	if err != nil {
		t.Fatalf("%s: %v (vm errors: %v)", src, err, vm.Errors())
	}
	if got != want {
		t.Errorf("%s = %q, want %q", src, got, want)
	}
}

func TestKernelBoots(t *testing.T) {
	vm := sharedImage(t)
	if len(vm.Errors()) != 0 {
		t.Fatalf("boot errors: %v", vm.Errors())
	}
}

func TestPrintingProtocol(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "42", "42")
	wantPrint(t, vm, "-7", "-7")
	wantPrint(t, vm, "0", "0")
	wantPrint(t, vm, "true", "true")
	wantPrint(t, vm, "nil printString", "'nil'")
	wantPrint(t, vm, "'hi'", "'hi'")
	wantPrint(t, vm, "'it''s'", "'it''s'")
	wantPrint(t, vm, "#foo", "#foo")
	wantPrint(t, vm, "$a", "$a")
	wantPrint(t, vm, "3/4", "0.75")
	wantPrint(t, vm, "255 printString: 16", "'FF'")
	wantPrint(t, vm, "1 -> 2", "1->2")
	wantPrint(t, vm, "Array with: 1 with: 2", "(1 2 )")
	wantPrint(t, vm, "Object new", "an Object")
	wantPrint(t, vm, "Array", "Array")
	wantPrint(t, vm, "(1 to: 3) asArray", "(1 2 3 )")
}

func TestCollectionProtocol(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "((1 to: 10) select: [:i | i even]) asArray", "(2 4 6 8 10 )")
	wantPrint(t, vm, "(1 to: 4) collect: [:i | i * i]", "(1 4 9 16 )")
	wantPrint(t, vm, "(1 to: 100) inject: 0 into: [:a :b | a + b]", "5050")
	wantPrint(t, vm, "#(3 1 2) includes: 2", "true")
	wantPrint(t, vm, "#(3 1 2) detect: [:x | x > 2]", "3")
	wantPrint(t, vm, "#(1 2 3) , #(4 5)", "(1 2 3 4 5 )")
	wantPrint(t, vm, "#(1 2 3) reversed", "(3 2 1 )")
	wantPrint(t, vm, "#(10 20 30) indexOf: 20", "2")
	wantPrint(t, vm, "(#(1 2 3 4 5) copyFrom: 2 to: 4)", "(2 3 4 )")
}

func TestOrderedCollection(t *testing.T) {
	vm := sharedImage(t)
	src := `| oc |
		oc := OrderedCollection new.
		1 to: 20 do: [:i | oc add: i * i].
		oc removeFirst.
		oc addFirst: 0.
		(oc at: 1) + (oc at: 20) + oc size`
	wantPrint(t, vm, src, "420")
	wantPrint(t, vm, "(OrderedCollection new add: 7; yourself) first", "7")
}

func TestDictionary(t *testing.T) {
	vm := sharedImage(t)
	src := `| d |
		d := Dictionary new.
		d at: #one put: 1.
		d at: #two put: 2.
		d at: 'three' put: 3.
		1 to: 30 do: [:i | d at: i put: i * 2].
		(d at: #one) + (d at: 'three') + (d at: 15) + d size`
	wantPrint(t, vm, src, "67")
	wantPrint(t, vm, "Dictionary new at: #x ifAbsent: [99]", "99")
	src2 := `| d |
		d := Dictionary new.
		d at: #k put: 5.
		d removeKey: #k.
		d includesKey: #k`
	wantPrint(t, vm, src2, "false")
}

func TestSetAndIdentityDictionary(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "| s | s := Set new. s add: 1; add: 2; add: 1. s size", "2")
	src := `| d k |
		d := IdentityDictionary new.
		k := 'key' copy.
		d at: k put: 1.
		d at: 'key' ifAbsent: [42]`
	wantPrint(t, vm, src, "42")
}

func TestStrings(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "'hello' asUppercase", "'HELLO'")
	wantPrint(t, vm, "'hello' < 'world'", "true")
	wantPrint(t, vm, "'abc' = 'abc'", "true")
	wantPrint(t, vm, "'abc' = 'abd'", "false")
	wantPrint(t, vm, "'hello world' substrings size", "2")
	wantPrint(t, vm, "('a,b,c' substringsSeparatedBy: $,) size", "3")
	wantPrint(t, vm, "'hello' indexOfSubstring: 'll'", "3")
	wantPrint(t, vm, "'  x  ' trimmed", "'x'")
	wantPrint(t, vm, "'-42' asNumber", "-42")
	wantPrint(t, vm, "'abc' startsWith: 'ab'", "true")
	wantPrint(t, vm, "'abc' endsWith: 'bc'", "true")
	wantPrint(t, vm, "('foo' , 'bar')", "'foobar'")
}

func TestStreams(t *testing.T) {
	vm := sharedImage(t)
	src := `| ws |
		ws := WriteStream on: (String new: 4).
		ws nextPutAll: 'sum='.
		ws print: 6 * 7.
		ws contents`
	wantPrint(t, vm, src, "'sum=42'")
	src2 := `| rs total |
		rs := ReadStream on: #(1 2 3 4).
		total := 0.
		[rs atEnd] whileFalse: [total := total + rs next].
		total`
	wantPrint(t, vm, src2, "10")
	wantPrint(t, vm, "(ReadStream on: 'a bc d') upTo: $ ", "'a'")
}

func TestReflection(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "3 class name", "#SmallInteger")
	wantPrint(t, vm, "3 isKindOf: Magnitude", "true")
	wantPrint(t, vm, "3 isKindOf: Collection", "false")
	wantPrint(t, vm, "3 respondsTo: #printString", "true")
	wantPrint(t, vm, "3 respondsTo: #frobnicate", "false")
	wantPrint(t, vm, "SmallInteger superclass name", "#Number")
	wantPrint(t, vm, "Array instSize", "0")
	wantPrint(t, vm, "(Smalltalk classNamed: 'Array') == Array", "true")
	wantPrint(t, vm, "Smalltalk allClasses size > 20", "true")
	wantPrint(t, vm, "(Array includesSelector: #printOn:) ", "true")
	wantPrint(t, vm, "Object class printString", "'Object class'")
}

func TestBrowsingQueries(t *testing.T) {
	vm := sharedImage(t)
	// find all implementors
	wantPrint(t, vm, "(Smalltalk allImplementorsOf: #printOn:) size > 5", "true")
	wantPrint(t, vm, "(Smalltalk allImplementorsOf: #zorkBlatFroz) size", "0")
	// find all calls
	wantPrint(t, vm, "(Smalltalk allCallsOn: #subclassResponsibility) size > 1", "true")
	// class definition printing
	def, err := EvaluateToString(vm, "Semaphore definitionString")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(def, "LinkedList subclass: #Semaphore") ||
		!strings.Contains(def, "excessSignals") {
		t.Errorf("definitionString = %q", def)
	}
	// hierarchy printing
	hier, err := EvaluateToString(vm, "Collection printHierarchy")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Collection", "SequenceableCollection", "Array", "Dictionary"} {
		if !strings.Contains(hier, want) {
			t.Errorf("hierarchy missing %s:\n%s", want, hier)
		}
	}
}

func TestCompileAndDecompileInImage(t *testing.T) {
	vm := testImage(t, 1)
	src := `Object subclass: 'ImgScratch' instanceVariableNames: '' category: 'Tests'.
		ImgScratch compile: 'double: x ^x * 2' classified: 'arithmetic'.
		ImgScratch new double: 21`
	wantPrint(t, vm, src, "42")
	dis, err := EvaluateToString(vm, "(ImgScratch compiledMethodAt: #double:) decompileString")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dis, "send *") {
		t.Errorf("decompiled = %q", dis)
	}
	wantPrint(t, vm, "(ImgScratch selectorsInCategory: 'arithmetic') size", "1")
	wantPrint(t, vm, "ImgScratch removeSelector: #double:. ImgScratch selectors size", "0")
}

func TestInspector(t *testing.T) {
	vm := sharedImage(t)
	src := `| i |
		i := Inspector on: (1 -> 'two').
		(i fieldNamed: 'key') , '/' , (i fieldNamed: 'value')`
	wantPrint(t, vm, src, "'1/''two'''")
	wantPrint(t, vm, "(Inspector on: #(7 8 9)) fields size", "4")
}

func TestTranscript(t *testing.T) {
	vm := testImage(t, 1)
	if _, err := vm.Evaluate("Transcript show: 'hello'; space; print: 42; cr"); err != nil {
		t.Fatal(err)
	}
	if got := vm.Disp.TranscriptText(); got != "hello 42\n" {
		t.Errorf("transcript = %q", got)
	}
}

func TestProcessesInImage(t *testing.T) {
	vm := testImage(t, 4)
	src := `| sem counter |
		sem := Semaphore new.
		counter := Array with: 0.
		[counter at: 1 put: (counter at: 1) + 100. sem signal] fork.
		[counter at: 1 put: (counter at: 1) + 10. sem signal] fork.
		sem wait. sem wait.
		counter at: 1`
	wantPrint(t, vm, src, "110")
}

func TestDelayInImage(t *testing.T) {
	vm := testImage(t, 1)
	before := vm.Interps[0].Proc().Now()
	if _, err := vm.Evaluate("(Delay forMilliseconds: 3) wait"); err != nil {
		t.Fatal(err)
	}
	if vm.Interps[0].Proc().Now()-before < 3000 {
		t.Error("delay did not advance virtual time")
	}
}

func TestSemaphoreCritical(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "| m | m := Semaphore forMutualExclusion. m critical: [21 * 2]", "42")
}

func TestClassOrganization(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "(Array categories includes: 'printing')", "true")
	wantPrint(t, vm, "Array category", "'Kernel'")
}

func TestFileInErrors(t *testing.T) {
	vm := testImage(t, 1)
	cases := []string{
		"!NoSuchClass methodsFor: 'x'!\nfoo ^1! !",
		"!Object methodsFor 'x'!\nfoo ^1! !",
		"!Object methodsFor: 'x'!\nfoo ^^^! !",
		"Frobnicate subclass: #Zap instanceVariableNames: '' category: 'x'",
	}
	for _, src := range cases {
		if err := FileIn(vm, "bad", src); err == nil {
			t.Errorf("FileIn(%q) succeeded", src)
		}
	}
}

func TestChunkReader(t *testing.T) {
	r := newChunkReader("first chunk!\n!command!\nmethod one!  !\nlast")
	c, cmd, ok := r.next()
	if !ok || cmd || strings.TrimSpace(c) != "first chunk" {
		t.Fatalf("chunk 1 = %q cmd=%v", c, cmd)
	}
	c, cmd, ok = r.next()
	if !ok || !cmd || strings.TrimSpace(c) != "command" {
		t.Fatalf("chunk 2 = %q cmd=%v", c, cmd)
	}
	// Method-mode reading: raw chunks, whitespace-only ends the section.
	c, ok = r.nextRaw()
	if !ok || strings.TrimSpace(c) != "method one" {
		t.Fatalf("chunk 3 = %q", c)
	}
	c, ok = r.nextRaw() // the empty terminator chunk
	if !ok || strings.TrimSpace(c) != "" {
		t.Fatalf("chunk 4 = %q", c)
	}
	c, cmd, ok = r.next()
	if !ok || cmd || strings.TrimSpace(c) != "last" {
		t.Fatalf("chunk 5 = %q", c)
	}
	if _, _, ok = r.next(); ok {
		t.Fatal("extra chunk")
	}
}

func TestBangEscape(t *testing.T) {
	r := newChunkReader("a !! b!")
	c, _, _ := r.next()
	if strings.TrimSpace(c) != "a ! b" {
		t.Fatalf("chunk = %q", c)
	}
}

func TestSorting(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "#(5 3 9 1 7) copy sort", "(1 3 5 7 9 )")
	wantPrint(t, vm, "#(5 3 9 1 7) copy sort: [:a :b | a >= b]", "(9 7 5 3 1 )")
	wantPrint(t, vm, "#() copy sort", "()")
	wantPrint(t, vm, "#(1) copy sort isSorted", "true")
	wantPrint(t, vm, "(#(3 1 2) asSortedArray) isSorted", "true")
	wantPrint(t, vm, "#('pear' 'apple' 'plum') copy sort", "('apple' 'pear' 'plum' )")
	src := `| oc |
		oc := OrderedCollection new.
		9 to: 1 by: -1 do: [:i | oc add: i].
		oc sort asArray`
	wantPrint(t, vm, src, "(1 2 3 4 5 6 7 8 9 )")
}

func TestCollectionArithmetic(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "#(1 2 3 4) sum", "10")
	wantPrint(t, vm, "#(4 9 2) max", "9")
	wantPrint(t, vm, "#(4 9 2) min", "2")
	wantPrint(t, vm, "(1 to: 9) average", "5")
	wantPrint(t, vm, "#(1 2 3) copyWith: 4", "(1 2 3 4 )")
}

func TestBag(t *testing.T) {
	vm := sharedImage(t)
	src := `| b |
		b := Bag new.
		b add: #x; add: #y; add: #x.
		b add: #z withOccurrences: 3.
		Array with: b size with: (b occurrencesOf: #x) with: (b includes: #y) with: (b occurrencesOf: #missing)`
	wantPrint(t, vm, src, "(6 2 true 0 )")
	src2 := `| b |
		b := Bag new.
		b add: #x; add: #x.
		b remove: #x ifAbsent: [nil].
		b occurrencesOf: #x`
	wantPrint(t, vm, src2, "1")
}

func TestDoSeparatedBy(t *testing.T) {
	vm := sharedImage(t)
	src := `| ws |
		ws := WriteStream on: (String new: 8).
		#(1 2 3) do: [:e | ws print: e] separatedBy: [ws nextPutAll: ', '].
		ws contents`
	wantPrint(t, vm, src, "'1, 2, 3'")
}

func TestSharedQueue(t *testing.T) {
	vm := testImage(t, 3)
	src := `| q done sum |
		q := SharedQueue new.
		done := Semaphore new.
		sum := Array with: 0.
		"A consumer Process drains five items, then signals."
		[1 to: 5 do: [:i | sum at: 1 put: (sum at: 1) + q next]. done signal] fork.
		1 to: 5 do: [:i | q nextPut: i * 10].
		done wait.
		sum at: 1`
	wantPrint(t, vm, src, "150")
	wantPrint(t, vm, "SharedQueue new isEmpty", "true")
	wantPrint(t, vm, "| q | q := SharedQueue new. q nextPut: 7. q peek", "7")
	wantPrint(t, vm, "| q | q := SharedQueue new. q nextPut: 1; nextPut: 2. q next. q next", "2")
}

func TestNumberMathematics(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "2 raisedTo: 10", "1024")
	wantPrint(t, vm, "3 raisedTo: 0", "1")
	wantPrint(t, vm, "(2 raisedTo: 40)", "1099511627776")
	wantPrint(t, vm, "(16 sqrt) truncated", "4")
	wantPrint(t, vm, "1000000 sqrtFloor", "1000")
	wantPrint(t, vm, "99 sqrtFloor", "9")
	wantPrint(t, vm, "(7 quo: 2)", "3")
	wantPrint(t, vm, "(-7 quo: 2)", "-3")
	wantPrint(t, vm, "(-7 rem: 2)", "-1")
	wantPrint(t, vm, "(7 rem: -2)", "1")
	wantPrint(t, vm, "4 lcm: 6", "12")
	wantPrint(t, vm, "12 gcd: 18", "6")
	wantPrint(t, vm, "10 factorial", "3628800")
}

func TestThisContext(t *testing.T) {
	vm := testImage(t, 1)
	// EvaluateToString wraps sources in a block, so thisContext here is
	// a BlockContext whose home is the DoIt method context.
	wantPrint(t, vm, "thisContext class name", "#BlockContext")
	wantPrint(t, vm, "thisContext home class name", "#MethodContext")
	wantPrint(t, vm, "thisContext method class name", "#CompiledMethod")
	// Inside a real method, thisContext is the method context itself.
	src := `Object subclass: 'CtxProbe' instanceVariableNames: '' category: 'T'.
		CtxProbe compile: 'probe ^thisContext class name' classified: 'x'.
		CtxProbe new probe`
	wantPrint(t, vm, src, "#MethodContext")
}

func TestClassSideCompilation(t *testing.T) {
	vm := testImage(t, 1)
	src := `Object subclass: 'Widget' instanceVariableNames: 'n' category: 'T'.
		Widget compile: 'setN: x n := x' classified: 'priv'.
		Widget compile: 'n ^n' classified: 'acc'.
		Widget class compile: 'withN: x ^self new setN: x; yourself' classified: 'creation'.
		(Widget withN: 9) n`
	wantPrint(t, vm, src, "9")
}

func TestFloatPrinting(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "3.5", "3.5")
	wantPrint(t, vm, "2.5e2", "250")
	wantPrint(t, vm, "0.125 + 0.125", "0.25")
	wantPrint(t, vm, "(1 / 3) < 0.34", "true")
	wantPrint(t, vm, "3.9 truncated", "3")
	wantPrint(t, vm, "3.9 rounded", "4")
	wantPrint(t, vm, "-1.5 floor", "-2")
	wantPrint(t, vm, "-1.5 ceiling", "-1")
}

func TestCharacterProtocol(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "$a asUppercase", "$A")
	wantPrint(t, vm, "$Z asLowercase", "$z")
	wantPrint(t, vm, "$5 digitValue", "5")
	wantPrint(t, vm, "$a isVowel", "true")
	wantPrint(t, vm, "$  isSeparator", "true")
	wantPrint(t, vm, "$a < $b", "true")
	wantPrint(t, vm, "65 asCharacter", "$A")
	wantPrint(t, vm, "($a value to: $e value) size", "5")
}

func TestWhileTrueOnBlockVariable(t *testing.T) {
	vm := sharedImage(t)
	// The general (non-inlined) whileTrue: — block held in a variable.
	src := `| i cond |
		i := 0.
		cond := [i < 5].
		cond whileTrue: [i := i + 1].
		i`
	wantPrint(t, vm, src, "5")
}

func TestSymbolNumArgs(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "#foo numArgs", "0")
	wantPrint(t, vm, "#at:put: numArgs", "2")
	wantPrint(t, vm, "#+ numArgs", "1")
}

func TestMessageProtocol(t *testing.T) {
	vm := testImage(t, 1)
	// A message captured by a custom doesNotUnderstand: exposes its
	// selector and arguments.
	src := `Object subclass: 'Capture' instanceVariableNames: '' category: 'T'.
		Capture compile: 'doesNotUnderstand: aMessage ^aMessage selector' classified: 'x'.
		Capture new blargh: 1 blergh: 2`
	wantPrint(t, vm, src, "#blargh:blergh:")
}

func TestStreamEdgeCases(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "(ReadStream on: #(1 2 3)) next: 2", "(1 2 )")
	wantPrint(t, vm, "| rs | rs := ReadStream on: #(1 2 3 4). rs skip: 2. rs next", "3")
	wantPrint(t, vm, "| rs | rs := ReadStream on: 'abc'. rs next. rs upToEnd", "'bc'")
	wantPrint(t, vm, "(ReadStream on: #()) atEnd", "true")
	wantPrint(t, vm, "(ReadStream on: #(9)) peek", "9")
	wantPrint(t, vm, "| rs | rs := ReadStream on: #(9). rs next. rs next", "nil")
	wantPrint(t, vm, "(WriteStream on: (String new: 0)) nextPutAll: 'grow me please'; contents", "'grow me please'")
}

func TestCollectionEdgeCases(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "#() isEmpty", "true")
	wantPrint(t, vm, "#(1) notEmpty", "true")
	wantPrint(t, vm, "#(1 2 2 3 2) occurrencesOf: 2", "3")
	wantPrint(t, vm, "(10 to: 1) size", "0")
	wantPrint(t, vm, "(10 to: 1 by: -3) asArray", "(10 7 4 1 )")
	wantPrint(t, vm, "#(1 2 3) detect: [:x | x > 9] ifNone: [-1]", "-1")
	wantPrint(t, vm, "| s | s := 0. #(1 2) with: #(10 20) do: [:a :b | s := s + (a * b)]. s", "50")
	wantPrint(t, vm, "| s | s := WriteStream on: (String new: 4). 'abc' reverseDo: [:c | s nextPut: c]. s contents", "'cba'")
	wantPrint(t, vm, "Dictionary new at: #k ifAbsentPut: [7]; at: #k", "7")
	wantPrint(t, vm, "| b | b := Bag new. b remove: #x ifAbsent: [#none]", "#none")
	wantPrint(t, vm, "#(5 6 7) doWithIndex: [:e :i | nil]. 1", "1")
	wantPrint(t, vm, "(OrderedCollection new addAll: #(1 2 3); yourself) size", "3")
	wantPrint(t, vm, "#(1 2 3) asOrderedCollection removeLast", "3")
}

func TestEqualityAndHashingLaws(t *testing.T) {
	vm := sharedImage(t)
	wantPrint(t, vm, "#(1 2) = #(1 2)", "true")
	wantPrint(t, vm, "#(1 2) = #(1 3)", "false")
	wantPrint(t, vm, "#(1 2) = 'ab'", "false")
	wantPrint(t, vm, "'ab' = #(97 98)", "false")
	wantPrint(t, vm, "('ab' hash) = ('ab' copy hash)", "true")
	wantPrint(t, vm, "3 = 3.0", "true")
	wantPrint(t, vm, "3.0 = 3", "true")
	wantPrint(t, vm, "3 < 3.5", "true")
}
