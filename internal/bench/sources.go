// Package bench reproduces the paper's evaluation: the macro benchmarks
// of Table 2 / Figure 2 under the four system states, plus the in-text
// ablation experiments (free context lists, method caches, allocation
// policy, scavenge behaviour).
package bench

// MacroSource defines the macro-benchmark workloads in Smalltalk.
// They are analogues of the Smalltalk-80 "macro" benchmarks (McCall's
// chapter of "Smalltalk-80: Bits of History, Words of Advice") the paper
// uses: typical programming-environment activities over the live image's
// metaobjects.
const MacroSource = `
"The eight macro benchmarks. Each answers its elapsed virtual time in
 milliseconds, measured by the running Process's own clock."!

Object subclass: #DummyCompileTarget
	instanceVariableNames: ''
	category: 'Benchmarks'!

Object subclass: #MacroBenchmark
	instanceVariableNames: ''
	category: 'Benchmarks'!

!MacroBenchmark methodsFor: 'running'!
run: aSymbol
	| t0 |
	t0 := self millisecondClockValue.
	self perform: aSymbol.
	^self millisecondClockValue - t0! !

!MacroBenchmark methodsFor: 'benchmarks'!
readWriteClassOrganization
	"Read every class's method organization, render it to the classic
	 parenthesized category format, store it back, and re-parse it."
	2 timesRepeat: [
		Smalltalk allClassesDo: [:cls |
			| org |
			org := self organizationStringFor: cls.
			cls organization: org.
			self parseOrganization: org]]!
printClassDefinition
	"Generate the class-definition expression for every class."
	3 timesRepeat: [
		Smalltalk allClassesDo: [:cls | cls definitionString]]!
printClassHierarchy
	"Render the indented hierarchy listing below Object."
	6 timesRepeat: [Object printHierarchy]!
findAllCalls
	"Senders search: every method whose literal frame references the
	 selector."
	#(printOn: at:ifAbsent: subclassResponsibility nextPutAll: value:) do: [:sel |
		Smalltalk allCallsOn: sel]!
findAllImplementors
	"Implementors search over every class and metaclass."
	#(printOn: do: at:ifAbsent: size hash value new printString) do: [:sel |
		Smalltalk allImplementorsOf: sel]!
createInspectorView
	"Build inspector views on a spread of objects."
	| subjects |
	subjects := Array
		with: 3 -> 4
		with: (Array with: 'string' with: #symbol with: 42)
		with: Object new
		with: (OrderedCollection new add: 1; add: 2; yourself).
	25 timesRepeat: [
		subjects do: [:each | Inspector on: each]]!
compileDummyMethod
	"Compile a method repeatedly into a scratch class: parsing,
	 literal allocation, installation into a shared method dictionary."
	250 timesRepeat: [
		DummyCompileTarget
			compile: 'dummyMethod: x | t | t := x + 1. t := t * 2. ^t - x'
			classified: 'benchmarks']!
decompileClass
	"Decompile every method of a handful of central classes."
	4 timesRepeat: [
		#(Collection SequenceableCollection String Behavior OrderedCollection Dictionary) do: [:sym |
			| cls |
			cls := Smalltalk classNamed: sym asString.
			cls methodsDo: [:m | m decompileString]]]! !

!MacroBenchmark methodsFor: 'organization'!
organizationStringFor: cls
	| stream |
	stream := WriteStream on: (String new: 128).
	cls categories do: [:cat |
		stream nextPut: $(.
		stream nextPutAll: cat.
		(cls selectorsInCategory: cat) do: [:sel |
			stream space.
			stream nextPutAll: sel asString].
		stream nextPutAll: ') '].
	^stream contents!
parseOrganization: orgString
	"Re-parse the rendered organization into category -> selector
	 token groups."
	| groups current tokens |
	groups := OrderedCollection new.
	current := nil.
	tokens := orgString substrings.
	tokens do: [:tok |
		(tok startsWith: '(')
			ifTrue: [
				current := OrderedCollection new.
				groups add: current.
				current add: (tok copyFrom: 2 to: tok size)]
			ifFalse: [
				(tok endsWith: ')')
					ifTrue: [
						current notNil ifTrue: [
							current add: (tok copyFrom: 1 to: tok size - 1)]]
					ifFalse: [
						current notNil ifTrue: [current add: tok]]]].
	^groups! !
`

// MacroBenchmarks lists the benchmark selectors in Table 2 column order,
// with the paper's display names.
var MacroBenchmarks = []struct {
	Selector string
	Paper    string
}{
	{"readWriteClassOrganization", "read and write class organization"},
	{"printClassDefinition", "print class definition"},
	{"printClassHierarchy", "print class hierarchy"},
	{"findAllCalls", "find all calls"},
	{"findAllImplementors", "find all implementors"},
	{"createInspectorView", "create inspector view"},
	{"compileDummyMethod", "compile dummy method"},
	{"decompileClass", "decompile class"},
}
