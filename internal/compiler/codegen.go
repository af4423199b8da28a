package compiler

import (
	"fmt"
	"math"
	"strings"

	"mst/internal/bytecode"
)

// LitGlobal is an extra literal kind produced only by the code
// generator: a reference to a global variable's Association in the
// system dictionary.
const LitGlobal LitKind = 99

// Lit is a literal descriptor in a compiled method's literal frame. The
// image layer materializes Lits as heap objects (interning symbols and
// resolving globals to Associations).
type Lit struct {
	Kind LitKind
	Int  int64
	Flt  float64
	Str  string // string, symbol, or global name
	Rune rune
	Arr  []Lit
}

// litKey identifies a literal for sharing within one literal frame. It is
// comparable, so the index needs no built string per literal reference; a
// float is keyed by its bits (as a float64, 0.0 and -0.0 would merge and a
// NaN never equal itself), an array by its elements' rendered keys in Str.
type litKey struct {
	Kind LitKind
	Int  int64
	Flt  uint64
	Str  string
	Rune rune
}

func (l Lit) key() litKey {
	if l.Kind != LitArray {
		return litKey{l.Kind, l.Int, math.Float64bits(l.Flt), l.Str, l.Rune}
	}
	var b strings.Builder
	for _, e := range l.Arr {
		fmt.Fprintf(&b, "%#v", e.key()) // Go syntax: strings quoted, so unambiguous
	}
	return litKey{Kind: LitArray, Str: b.String()}
}

// Method is a compiled method, ready to be materialized into the image.
type Method struct {
	Selector  string
	NumArgs   int
	NumTemps  int // total temporary slots, arguments included
	Primitive int
	Clean     bool // creates no blocks, never touches thisContext
	MaxStack  int
	// NumSendSites counts the send instructions in Code (general,
	// super, and special sends alike). The interpreter's inline-cache
	// layer allocates one cache slot per site.
	NumSendSites int
	Code         []byte
	Literals     []Lit
	Source       string
}

// Env resolves names the compiler cannot: instance variables (from the
// class the method is compiled into) and globals (from the system
// dictionary).
type Env interface {
	// InstVarIndex returns the 0-based field index for an instance
	// variable name visible in the target class.
	InstVarIndex(name string) (int, bool)
	// IsGlobal reports whether name is (or should become) a global.
	IsGlobal(name string) bool
}

// MapEnv is a simple Env for tests and tools.
type MapEnv struct {
	InstVars []string
	Globals  map[string]bool
}

// InstVarIndex implements Env.
func (e MapEnv) InstVarIndex(name string) (int, bool) {
	for i, n := range e.InstVars {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// IsGlobal implements Env.
func (e MapEnv) IsGlobal(name string) bool { return e.Globals[name] }

// CompileMethod parses and compiles a method definition.
func CompileMethod(src string, env Env) (*Method, error) {
	node, err := ParseMethod(src)
	if err != nil {
		return nil, err
	}
	return Generate(node, env, src)
}

// CompileExpression parses and compiles a statement sequence as a DoIt
// method whose last statement's value is returned.
func CompileExpression(src string, env Env) (*Method, error) {
	node, err := ParseExpression(src)
	if err != nil {
		return nil, err
	}
	return Generate(node, env, src)
}

// gen is the code generator state for one method.
type gen struct {
	asm bytecode.Assembler
	env Env
	// names binds temporaries to slots, innermost scope last; a lookup
	// takes the last binding of a name. A method has few temporaries and
	// literals, so scans beat a map per scope and one per literal frame.
	names  []binding
	nTemps int
	lits   []Lit

	usesBlocks bool
	usesCtx    bool
}

// binding is one temporary's name and slot.
type binding struct {
	name string
	slot int
}

// Generate compiles a parsed method against env.
func Generate(m *MethodNode, env Env, source string) (out *Method, err error) {
	// The assembler panics on operand-range overflows (too many
	// literals in one send, oversized jumps); report those as
	// compilation errors rather than crashing the host.
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("compiler: %s: %v", m.Selector, r)
		}
	}()
	g := &gen{env: env}
	g.asm.Grow(32) // most methods' code fits: one allocation, not three
	for _, p := range m.Params {
		if !g.declare(0, p) {
			return nil, fmt.Errorf("compiler: duplicate argument %q", p)
		}
	}
	for _, t := range m.Temps {
		if !g.declare(0, t) {
			return nil, fmt.Errorf("compiler: duplicate temporary %q", t)
		}
	}

	if err := g.genMethodBody(m.Body); err != nil {
		return nil, err
	}
	if g.nTemps > 255 {
		return nil, fmt.Errorf("compiler: method %s has too many temporaries", m.Selector)
	}
	if len(g.lits) > 255 {
		return nil, fmt.Errorf("compiler: method %s has too many literals", m.Selector)
	}
	code := g.asm.Code()
	maxD, err := maxStack(code, 0, len(code), 0, make([]int32, len(code)))
	if err != nil {
		return nil, fmt.Errorf("compiler: %s: %v", m.Selector, err)
	}
	return &Method{
		Selector:     m.Selector,
		NumArgs:      len(m.Params),
		NumTemps:     g.nTemps,
		Primitive:    m.Primitive,
		Clean:        !g.usesBlocks && !g.usesCtx,
		MaxStack:     maxD,
		NumSendSites: bytecode.CountSendSites(code),
		Code:         code,
		Literals:     g.lits,
		Source:       source,
	}, nil
}

func (g *gen) errf(n Node, format string, args ...interface{}) error {
	line, col := n.Pos()
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// declare binds name to the next temporary slot in the scope whose
// bindings start at names[scope], unless that scope already binds it.
func (g *gen) declare(scope int, name string) bool {
	for _, b := range g.names[scope:] {
		if b.name == name {
			return false
		}
	}
	g.bind(name, g.nTemps)
	g.nTemps++
	return true
}

func (g *gen) bind(name string, slot int) {
	g.names = append(g.names, binding{name, slot})
}

func (g *gen) lookupTemp(name string) (int, bool) {
	for i := len(g.names) - 1; i >= 0; i-- {
		if g.names[i].name == name {
			return g.names[i].slot, true
		}
	}
	return 0, false
}

func (g *gen) literal(l Lit) int {
	k := l.key()
	for i, have := range g.lits {
		if have.Kind == l.Kind && have.key() == k {
			return i
		}
	}
	g.lits = append(g.lits, l)
	return len(g.lits) - 1
}

// genMethodBody emits statements; falls off the end with returnSelf.
func (g *gen) genMethodBody(body []Stmt) error {
	for _, s := range body {
		switch s := s.(type) {
		case *ReturnStmt:
			if err := g.genExpr(s.X); err != nil {
				return err
			}
			g.asm.Emit(bytecode.OpReturnTop)
			return nil
		case *ExprStmt:
			if err := g.genForEffect(s.X); err != nil {
				return err
			}
		}
	}
	g.asm.Emit(bytecode.OpReturnSelf)
	return nil
}

// genForEffect evaluates x and discards the value, folding stores.
func (g *gen) genForEffect(x Expr) error {
	if a, ok := x.(*AssignNode); ok {
		if err := g.genExpr(a.Value); err != nil {
			return err
		}
		return g.genStore(a, true)
	}
	if err := g.genExpr(x); err != nil {
		return err
	}
	g.asm.Emit(bytecode.OpPop)
	return nil
}

// genStore emits the store for an assignment target; pop selects the
// discarding variant.
func (g *gen) genStore(a *AssignNode, pop bool) error {
	pick := func(keep, discard bytecode.Op) bytecode.Op {
		if pop {
			return discard
		}
		return keep
	}
	if idx, ok := g.lookupTemp(a.Name); ok {
		g.asm.EmitU8(pick(bytecode.OpStoreTemp, bytecode.OpPopTemp), idx)
		return nil
	}
	if idx, ok := g.env.InstVarIndex(a.Name); ok {
		g.asm.EmitU8(pick(bytecode.OpStoreInstVar, bytecode.OpPopInstVar), idx)
		return nil
	}
	if g.env.IsGlobal(a.Name) {
		lit := g.literal(Lit{Kind: LitGlobal, Str: a.Name})
		g.asm.EmitU8(pick(bytecode.OpStoreGlobal, bytecode.OpPopGlobal), lit)
		return nil
	}
	return g.errf(a, "undeclared variable %q", a.Name)
}

func (g *gen) genExpr(x Expr) error {
	switch x := x.(type) {
	case *LiteralNode:
		return g.genLiteral(x)
	case *VarNode:
		return g.genVar(x)
	case *AssignNode:
		if err := g.genExpr(x.Value); err != nil {
			return err
		}
		return g.genStore(x, false)
	case *SendNode:
		return g.genSend(x)
	case *CascadeNode:
		return g.genCascade(x)
	case *BlockNode:
		return g.genBlock(x)
	default:
		return g.errf(x, "cannot compile %T", x)
	}
}

func (g *gen) genLiteral(x *LiteralNode) error {
	switch x.Kind {
	case LitNil:
		g.asm.Emit(bytecode.OpPushNil)
	case LitTrue:
		g.asm.Emit(bytecode.OpPushTrue)
	case LitFalse:
		g.asm.Emit(bytecode.OpPushFalse)
	case LitInt:
		if x.Int >= -128 && x.Int <= 127 {
			g.asm.EmitI8(bytecode.OpPushInt8, int(x.Int))
		} else {
			g.asm.EmitU8(bytecode.OpPushLiteral, g.literal(Lit{Kind: LitInt, Int: x.Int}))
		}
	default:
		g.asm.EmitU8(bytecode.OpPushLiteral, g.literal(litFromNode(x)))
	}
	return nil
}

func litFromNode(x *LiteralNode) Lit {
	l := Lit{Kind: x.Kind, Int: x.Int, Flt: x.Flt, Str: x.Str, Rune: x.Rune}
	if x.Kind == LitArray {
		for _, e := range x.Arr {
			l.Arr = append(l.Arr, litFromNode(&e))
		}
	}
	return l
}

func (g *gen) genVar(x *VarNode) error {
	switch x.Name {
	case "self":
		g.asm.Emit(bytecode.OpPushSelf)
		return nil
	case "thisContext":
		g.usesCtx = true
		g.asm.Emit(bytecode.OpPushThisContext)
		return nil
	case "super":
		return g.errf(x, "super may only be a message receiver")
	}
	if idx, ok := g.lookupTemp(x.Name); ok {
		g.asm.EmitU8(bytecode.OpPushTemp, idx)
		return nil
	}
	if idx, ok := g.env.InstVarIndex(x.Name); ok {
		g.asm.EmitU8(bytecode.OpPushInstVar, idx)
		return nil
	}
	if g.env.IsGlobal(x.Name) {
		g.asm.EmitU8(bytecode.OpPushGlobal, g.literal(Lit{Kind: LitGlobal, Str: x.Name}))
		return nil
	}
	return g.errf(x, "undeclared variable %q", x.Name)
}

// genSend compiles a message send, inlining the standard control-flow
// selectors when their block arguments are literal blocks (as every
// Smalltalk-80 compiler does — the paper's idle Process, [true]
// whileTrue, relies on this compiling to pure jumps).
func (g *gen) genSend(x *SendNode) error {
	if !x.Super {
		if done, err := g.tryInline(x); done || err != nil {
			return err
		}
	}
	if err := g.genExpr(x.Receiver); err != nil {
		return err
	}
	for _, a := range x.Args {
		if err := g.genExpr(a); err != nil {
			return err
		}
	}
	g.emitSendOp(x.Super, x.Selector, len(x.Args))
	return nil
}

func (g *gen) emitSendOp(super bool, selector string, nargs int) {
	if !super {
		if op, ok := bytecode.SpecialSendFor(selector); ok {
			g.asm.Emit(op)
			return
		}
	}
	op := bytecode.OpSend
	if super {
		op = bytecode.OpSendSuper
	}
	g.asm.EmitSend(op, g.literal(Lit{Kind: LitSymbol, Str: selector}), nargs)
}

func (g *gen) genCascade(x *CascadeNode) error {
	if err := g.genExpr(x.Receiver); err != nil {
		return err
	}
	for i, msg := range x.Msgs {
		last := i == len(x.Msgs)-1
		if !last {
			g.asm.Emit(bytecode.OpDup)
		}
		for _, a := range msg.Args {
			if err := g.genExpr(a); err != nil {
				return err
			}
		}
		g.emitSendOp(x.Super, msg.Selector, len(msg.Args))
		if !last {
			g.asm.Emit(bytecode.OpPop)
		}
	}
	return nil
}

// genBlock compiles a real (non-inlined) block: its arguments and
// temporaries live in the home method's frame, Smalltalk-80 style.
func (g *gen) genBlock(x *BlockNode) error {
	g.usesBlocks = true
	scope := len(g.names)
	firstArg := g.nTemps
	for _, p := range x.Params {
		if !g.declare(scope, p) {
			return g.errf(x, "duplicate block argument %q", p)
		}
	}
	for _, t := range x.Temps {
		if !g.declare(scope, t) {
			return g.errf(x, "duplicate block temporary %q", t)
		}
	}
	patch := g.asm.EmitPushBlock(len(x.Params), firstArg)
	if err := g.genBlockBody(x.Body); err != nil {
		return err
	}
	g.names = g.names[:scope]
	g.asm.PatchBlock(patch)
	return nil
}

// genBlockBody emits block statements ending in a BlockReturn of the
// last value (or nil for an empty block). A ^return inside compiles to
// ReturnTop: a non-local return from the home method.
func (g *gen) genBlockBody(body []Stmt) error {
	if len(body) == 0 {
		g.asm.Emit(bytecode.OpPushNil)
		g.asm.Emit(bytecode.OpBlockReturn)
		return nil
	}
	for i, s := range body {
		last := i == len(body)-1
		switch s := s.(type) {
		case *ReturnStmt:
			if err := g.genExpr(s.X); err != nil {
				return err
			}
			g.asm.Emit(bytecode.OpReturnTop)
			return nil
		case *ExprStmt:
			if last {
				if err := g.genExpr(s.X); err != nil {
					return err
				}
				g.asm.Emit(bytecode.OpBlockReturn)
			} else {
				if err := g.genForEffect(s.X); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// genInlineValue emits an inlined block's statements, leaving the value
// of the last statement on the stack (nil for an empty block). The
// block's parameters/temps (if any) must already be bound by the caller.
func (g *gen) genInlineValue(b *BlockNode) error {
	scope := len(g.names)
	for _, t := range b.Temps {
		g.bind(t, g.nTemps)
		g.nTemps++
	}
	defer func() { g.names = g.names[:scope] }()
	if len(b.Body) == 0 {
		g.asm.Emit(bytecode.OpPushNil)
		return nil
	}
	for i, s := range b.Body {
		last := i == len(b.Body)-1
		switch s := s.(type) {
		case *ReturnStmt:
			if err := g.genExpr(s.X); err != nil {
				return err
			}
			g.asm.Emit(bytecode.OpReturnTop)
			if last {
				// Unreachable, but keep stack shape consistent
				// for the analyzer.
				g.asm.Emit(bytecode.OpPushNil)
			}
			return nil
		case *ExprStmt:
			if last {
				if err := g.genExpr(s.X); err != nil {
					return err
				}
			} else {
				if err := g.genForEffect(s.X); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// literalBlock returns x as a zero-argument literal block, or nil.
func literalBlock(x Expr, nparams int) *BlockNode {
	if b, ok := x.(*BlockNode); ok && len(b.Params) == nparams {
		return b
	}
	return nil
}

// tryInline handles control-flow selectors with literal block operands.
// It reports whether it emitted code.
func (g *gen) tryInline(x *SendNode) (bool, error) {
	switch x.Selector {
	case "ifTrue:":
		if t := literalBlock(x.Args[0], 0); t != nil {
			return true, g.genIf(x.Receiver, t, nil)
		}
	case "ifFalse:":
		if f := literalBlock(x.Args[0], 0); f != nil {
			return true, g.genIf(x.Receiver, nil, f)
		}
	case "ifTrue:ifFalse:":
		t, f := literalBlock(x.Args[0], 0), literalBlock(x.Args[1], 0)
		if t != nil && f != nil {
			return true, g.genIf(x.Receiver, t, f)
		}
	case "ifFalse:ifTrue:":
		f, t := literalBlock(x.Args[0], 0), literalBlock(x.Args[1], 0)
		if t != nil && f != nil {
			return true, g.genIf(x.Receiver, t, f)
		}
	case "and:":
		if b := literalBlock(x.Args[0], 0); b != nil {
			return true, g.genAndOr(x.Receiver, b, true)
		}
	case "or:":
		if b := literalBlock(x.Args[0], 0); b != nil {
			return true, g.genAndOr(x.Receiver, b, false)
		}
	case "whileTrue:":
		c, b := literalBlock(x.Receiver, 0), literalBlock(x.Args[0], 0)
		if c != nil && b != nil {
			return true, g.genWhile(c, b, true)
		}
	case "whileFalse:":
		c, b := literalBlock(x.Receiver, 0), literalBlock(x.Args[0], 0)
		if c != nil && b != nil {
			return true, g.genWhile(c, b, false)
		}
	case "whileTrue":
		if c := literalBlock(x.Receiver, 0); c != nil {
			return true, g.genWhile(c, nil, true)
		}
	case "whileFalse":
		if c := literalBlock(x.Receiver, 0); c != nil {
			return true, g.genWhile(c, nil, false)
		}
	case "repeat":
		if b := literalBlock(x.Receiver, 0); b != nil {
			return true, g.genRepeat(b)
		}
	case "to:do:":
		if b := literalBlock(x.Args[1], 1); b != nil {
			return true, g.genToDo(x.Receiver, x.Args[0], 1, b)
		}
	case "to:by:do:":
		step, isLit := x.Args[1].(*LiteralNode)
		b := literalBlock(x.Args[2], 1)
		if b != nil && isLit && step.Kind == LitInt && step.Int != 0 &&
			step.Int >= -128 && step.Int <= 127 {
			return true, g.genToDo(x.Receiver, x.Args[0], step.Int, b)
		}
	}
	return false, nil
}

func (g *gen) genIf(cond Expr, thenB, elseB *BlockNode) error {
	if err := g.genExpr(cond); err != nil {
		return err
	}
	toElse := g.asm.EmitJump(bytecode.OpJumpFalse)
	if thenB != nil {
		if err := g.genInlineValue(thenB); err != nil {
			return err
		}
	} else {
		g.asm.Emit(bytecode.OpPushNil)
	}
	toEnd := g.asm.EmitJump(bytecode.OpJump)
	g.asm.PatchJump(toElse)
	if elseB != nil {
		if err := g.genInlineValue(elseB); err != nil {
			return err
		}
	} else {
		g.asm.Emit(bytecode.OpPushNil)
	}
	g.asm.PatchJump(toEnd)
	return nil
}

func (g *gen) genAndOr(cond Expr, b *BlockNode, isAnd bool) error {
	if err := g.genExpr(cond); err != nil {
		return err
	}
	op := bytecode.OpJumpFalse
	if !isAnd {
		op = bytecode.OpJumpTrue
	}
	short := g.asm.EmitJump(op)
	if err := g.genInlineValue(b); err != nil {
		return err
	}
	toEnd := g.asm.EmitJump(bytecode.OpJump)
	g.asm.PatchJump(short)
	if isAnd {
		g.asm.Emit(bytecode.OpPushFalse)
	} else {
		g.asm.Emit(bytecode.OpPushTrue)
	}
	g.asm.PatchJump(toEnd)
	return nil
}

// genWhile emits [cond] whileTrue: [body]; the expression value is nil.
func (g *gen) genWhile(cond, body *BlockNode, whileTrue bool) error {
	top := g.asm.Len()
	if err := g.genInlineValue(cond); err != nil {
		return err
	}
	op := bytecode.OpJumpFalse
	if !whileTrue {
		op = bytecode.OpJumpTrue
	}
	exit := g.asm.EmitJump(op)
	if body != nil {
		if err := g.genInlineValue(body); err != nil {
			return err
		}
		g.asm.Emit(bytecode.OpPop)
	}
	g.asm.EmitJumpBack(bytecode.OpJump, top)
	g.asm.PatchJump(exit)
	g.asm.Emit(bytecode.OpPushNil)
	return nil
}

func (g *gen) genRepeat(body *BlockNode) error {
	top := g.asm.Len()
	if err := g.genInlineValue(body); err != nil {
		return err
	}
	g.asm.Emit(bytecode.OpPop)
	g.asm.EmitJumpBack(bytecode.OpJump, top)
	// A repeat never falls through, but the analyzer wants a value.
	g.asm.Emit(bytecode.OpPushNil)
	return nil
}

// genToDo inlines `start to: limit by: step do: [:i | body]`; its value
// is the start value, per Smalltalk-80.
func (g *gen) genToDo(start, limit Expr, step int64, body *BlockNode) error {
	iVar := g.nTemps
	g.nTemps++
	limitVar := g.nTemps
	g.nTemps++
	firstTemp := g.nTemps
	g.nTemps += len(body.Temps)

	if err := g.genExpr(start); err != nil {
		return err
	}
	g.asm.Emit(bytecode.OpDup) // keep the start value as the result
	g.asm.EmitU8(bytecode.OpPopTemp, iVar)
	if err := g.genExpr(limit); err != nil {
		return err
	}
	g.asm.EmitU8(bytecode.OpPopTemp, limitVar)

	top := g.asm.Len()
	g.asm.EmitU8(bytecode.OpPushTemp, iVar)
	g.asm.EmitU8(bytecode.OpPushTemp, limitVar)
	if step > 0 {
		g.asm.Emit(bytecode.OpSendLE)
	} else {
		g.asm.Emit(bytecode.OpSendGE)
	}
	exit := g.asm.EmitJump(bytecode.OpJumpFalse)

	// The loop's names are bound around its body only: the start and
	// limit expressions see the enclosing scopes.
	scope := len(g.names)
	g.bind(body.Params[0], iVar)
	for i, t := range body.Temps {
		g.bind(t, firstTemp+i)
	}
	for _, s := range body.Body {
		switch s := s.(type) {
		case *ReturnStmt:
			if err := g.genExpr(s.X); err != nil {
				g.names = g.names[:scope]
				return err
			}
			g.asm.Emit(bytecode.OpReturnTop)
		case *ExprStmt:
			if err := g.genForEffect(s.X); err != nil {
				g.names = g.names[:scope]
				return err
			}
		}
	}
	g.names = g.names[:scope]

	g.asm.EmitU8(bytecode.OpPushTemp, iVar)
	g.asm.EmitI8(bytecode.OpPushInt8, int(step))
	g.asm.Emit(bytecode.OpSendAdd)
	g.asm.EmitU8(bytecode.OpPopTemp, iVar)
	g.asm.EmitJumpBack(bytecode.OpJump, top)
	g.asm.PatchJump(exit)
	return nil
}
