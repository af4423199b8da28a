package serve

// The tenant session protocol: every tenant image carries one
// ServeSession instance (the global `Session`), installed in the base
// image before the checkpoint is captured, so every clone starts from
// the same session state and mutates only its own copy.
//
// The request catalog below is the server's workload vocabulary: each
// open-loop arrival names one catalog entry, and the generator picks
// entries deterministically. The mix covers the server-relevant axes —
// pure compute, session-state mutation, allocation pressure (scavenge
// traffic), and string building — without any request depending on host
// state, so a tenant's virtual service time is a pure function of its
// request history.

// SessionSource is the chunk-format source filed into the base image.
const SessionSource = `
Object subclass: #ServeSession
	instanceVariableNames: 'hits notes'
	category: 'Server'!

!ServeSession class methodsFor: 'instance creation'!
open
	| s |
	s := self new.
	s setUp.
	^s! !

!ServeSession methodsFor: 'initialization'!
setUp
	hits := 0.
	notes := Array new: 0! !

!ServeSession methodsFor: 'serving'!
bump
	"Session-state mutation: count a hit."
	hits := hits + 1.
	^hits!
hits
	^hits!
note: x
	"Append to the session log, growing it by copy: steady allocation
	 that scales with session age, the way a real session's working set
	 creeps."
	| n |
	n := Array new: notes size + 1.
	1 to: notes size do: [:i | n at: i put: (notes at: i)].
	n at: n size put: x.
	notes := n.
	^n size!
digest
	"Render the session state: sends, allocation, string building."
	| s |
	s := WriteStream on: (String new: 16).
	hits printOn: s.
	s nextPut: $/.
	notes size printOn: s.
	^s contents! !
`

// sessionInstall runs in the base image after file-in: every clone
// inherits its own private copy of the Session object.
const sessionInstall = `Smalltalk at: 'Session' put: ServeSession open. Session hits`

// RequestKind is one catalog entry.
type RequestKind struct {
	Name   string
	Source string
}

// Catalog is the request vocabulary, indexed by Request.Kind.
var Catalog = []RequestKind{
	{"bump", "Session bump"},
	{"digest", "Session digest"},
	{"note", "Session note: Session hits"},
	{"sum", "(1 to: 50) inject: 0 into: [:a :b | a + b]"},
	{"alloc", "| a | a := Array new: 48. 1 to: 48 do: [:i | a at: i put: i * i]. a at: 48"},
}
