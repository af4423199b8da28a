package compiler

import "fmt"

// Parser builds an AST from Smalltalk source.
type Parser struct {
	lex Lexer
	cur Token
}

// NewParser returns a parser over src.
func NewParser(src string) (*Parser, error) {
	p := &Parser{lex: *NewLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Parser) advance() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return &Error{Line: p.cur.Line, Col: p.cur.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) at(k TokKind) bool { return p.cur.Kind == k }

func (p *Parser) expect(k TokKind, what string) (Token, error) {
	if p.cur.Kind != k {
		return Token{}, p.errf("expected %s, found %s", what, p.cur)
	}
	t := p.cur
	if err := p.advance(); err != nil {
		return Token{}, err
	}
	return t, nil
}

func (p *Parser) posOf(t Token) pos { return pos{t.Line, t.Col} }

// ParseMethod parses a complete method definition: selector pattern,
// temporaries, optional primitive pragma, statements.
func ParseMethod(src string) (*MethodNode, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	m := &MethodNode{pos: p.posOf(p.cur)}
	if err := p.parsePattern(m); err != nil {
		return nil, err
	}
	if err := p.parseBody(m); err != nil {
		return nil, err
	}
	if !p.at(TokEOF) {
		return nil, p.errf("unexpected %s after method body", p.cur)
	}
	return m, nil
}

// ParseExpression parses a statement sequence (with optional leading
// temporaries) as a DoIt method body; the value of the last statement is
// returned implicitly.
func ParseExpression(src string) (*MethodNode, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	m := &MethodNode{pos: p.posOf(p.cur), Selector: "DoIt"}
	if err := p.parseBody(m); err != nil {
		return nil, err
	}
	if !p.at(TokEOF) {
		return nil, p.errf("unexpected %s after expression", p.cur)
	}
	// Make the last expression statement an implicit return.
	for i := len(m.Body) - 1; i >= 0; i-- {
		if es, ok := m.Body[i].(*ExprStmt); ok && i == len(m.Body)-1 {
			m.Body[i] = &ReturnStmt{pos: es.pos, X: es.X}
		}
		break
	}
	return m, nil
}

func (p *Parser) parsePattern(m *MethodNode) error {
	switch p.cur.Kind {
	case TokIdent:
		m.Selector = p.cur.Text
		return p.advance()
	case TokBinary, TokPipe:
		// `|` can be a binary selector being defined (Boolean>>|).
		m.Selector = p.cur.Text
		if err := p.advance(); err != nil {
			return err
		}
		arg, err := p.expect(TokIdent, "argument name")
		if err != nil {
			return err
		}
		m.Params = append(m.Params, arg.Text)
		return nil
	case TokKeyword:
		for p.at(TokKeyword) {
			m.Selector += p.cur.Text
			if err := p.advance(); err != nil {
				return err
			}
			arg, err := p.expect(TokIdent, "argument name")
			if err != nil {
				return err
			}
			m.Params = append(m.Params, arg.Text)
		}
		return nil
	default:
		return p.errf("expected method pattern, found %s", p.cur)
	}
}

// parseBody parses temporaries, an optional primitive pragma, and
// statements up to EOF.
func (p *Parser) parseBody(m *MethodNode) error {
	temps, err := p.parseTemps()
	if err != nil {
		return err
	}
	m.Temps = temps
	prim, err := p.parsePragma()
	if err != nil {
		return err
	}
	m.Primitive = prim
	body, err := p.parseStatements(TokEOF)
	if err != nil {
		return err
	}
	m.Body = body
	return nil
}

func (p *Parser) parseTemps() ([]string, error) {
	if !p.at(TokPipe) {
		return nil, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var temps []string
	for p.at(TokIdent) {
		temps = append(temps, p.cur.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokPipe, "'|' closing temporaries"); err != nil {
		return nil, err
	}
	if temps == nil {
		temps = []string{}
	}
	return temps, nil
}

// parsePragma recognizes `<primitive: N>`.
func (p *Parser) parsePragma() (int, error) {
	if !p.at(TokBinary) || p.cur.Text != "<" {
		return 0, nil
	}
	if err := p.advance(); err != nil {
		return 0, err
	}
	kw, err := p.expect(TokKeyword, "primitive:")
	if err != nil {
		return 0, err
	}
	if kw.Text != "primitive:" {
		return 0, p.errf("unknown pragma %q", kw.Text)
	}
	num, err := p.expect(TokInt, "primitive number")
	if err != nil {
		return 0, err
	}
	if !p.at(TokBinary) || p.cur.Text != ">" {
		return 0, p.errf("expected '>' closing pragma")
	}
	if err := p.advance(); err != nil {
		return 0, err
	}
	if num.Int <= 0 {
		return 0, p.errf("bad primitive number %d", num.Int)
	}
	return int(num.Int), nil
}

func (p *Parser) parseStatements(end TokKind) ([]Stmt, error) {
	stmts := []Stmt{}
	for {
		if p.at(end) || p.at(TokEOF) {
			return stmts, nil
		}
		if p.at(TokCaret) {
			start := p.cur
			if err := p.advance(); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, &ReturnStmt{pos: p.posOf(start), X: x})
			if p.at(TokDot) {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if !p.at(end) && !p.at(TokEOF) {
				return nil, p.errf("statement after return")
			}
			return stmts, nil
		}
		start := p.cur
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, &ExprStmt{pos: p.posOf(start), X: x})
		if p.at(TokDot) {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if p.at(end) || p.at(TokEOF) {
			return stmts, nil
		}
		return nil, p.errf("expected '.' between statements, found %s", p.cur)
	}
}

// parseExpr handles assignment (right-associative) atop cascades.
func (p *Parser) parseExpr() (Expr, error) {
	if p.at(TokIdent) {
		// Possible assignment: ident ':=' expr.
		save := p.lex
		name := p.cur
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.at(TokAssign) {
			if err := p.advance(); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignNode{pos: p.posOf(name), Name: name.Text, Value: val}, nil
		}
		// Not an assignment: rewind the lexer and reparse.
		p.lex = save
		p.cur = name
	}
	return p.parseCascade()
}

func (p *Parser) parseCascade() (Expr, error) {
	x, err := p.parseKeywordExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokSemi) {
		return x, nil
	}
	send, ok := x.(*SendNode)
	if !ok {
		return nil, p.errf("cascade must follow a message send")
	}
	casc := &CascadeNode{
		pos:      send.pos,
		Receiver: send.Receiver,
		Super:    send.Super,
		Msgs:     []CascadeMsg{{pos: send.pos, Selector: send.Selector, Args: send.Args}},
	}
	for p.at(TokSemi) {
		if err := p.advance(); err != nil {
			return nil, err
		}
		msg, err := p.parseCascadeMsg()
		if err != nil {
			return nil, err
		}
		casc.Msgs = append(casc.Msgs, msg)
	}
	return casc, nil
}

// parseCascadeMsg parses one message after a ';': a unary selector, a
// binary selector and argument, or keyword parts.
func (p *Parser) parseCascadeMsg() (CascadeMsg, error) {
	start := p.cur
	switch p.cur.Kind {
	case TokIdent:
		sel := p.cur.Text
		if err := p.advance(); err != nil {
			return CascadeMsg{}, err
		}
		return CascadeMsg{pos: p.posOf(start), Selector: sel}, nil
	case TokBinary:
		sel := p.cur.Text
		if err := p.advance(); err != nil {
			return CascadeMsg{}, err
		}
		arg, err := p.parseUnaryExpr()
		if err != nil {
			return CascadeMsg{}, err
		}
		return CascadeMsg{pos: p.posOf(start), Selector: sel, Args: []Expr{arg}}, nil
	case TokKeyword:
		var sel string
		var args []Expr
		for p.at(TokKeyword) {
			sel += p.cur.Text
			if err := p.advance(); err != nil {
				return CascadeMsg{}, err
			}
			arg, err := p.parseBinaryExpr()
			if err != nil {
				return CascadeMsg{}, err
			}
			args = append(args, arg)
		}
		return CascadeMsg{pos: p.posOf(start), Selector: sel, Args: args}, nil
	default:
		return CascadeMsg{}, p.errf("expected message after ';', found %s", p.cur)
	}
}

func (p *Parser) parseKeywordExpr() (Expr, error) {
	recv, err := p.parseBinaryExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokKeyword) {
		return recv, nil
	}
	start := p.cur
	var sel string
	var args []Expr
	for p.at(TokKeyword) {
		sel += p.cur.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		arg, err := p.parseBinaryExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
	}
	return p.makeSend(recv, sel, args, p.posOf(start)), nil
}

func (p *Parser) parseBinaryExpr() (Expr, error) {
	x, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokBinary) || p.at(TokPipe) {
		// `|` as a binary message (Boolean or).
		sel := p.cur.Text
		start := p.cur
		if err := p.advance(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		x = p.makeSend(x, sel, []Expr{arg}, p.posOf(start))
	}
	return x, nil
}

func (p *Parser) parseUnaryExpr() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(TokIdent) {
		sel := p.cur.Text
		start := p.cur
		if err := p.advance(); err != nil {
			return nil, err
		}
		x = p.makeSend(x, sel, nil, p.posOf(start))
	}
	return x, nil
}

// makeSend constructs a SendNode, marking super sends.
func (p *Parser) makeSend(recv Expr, sel string, args []Expr, at pos) Expr {
	if v, ok := recv.(*VarNode); ok && v.Name == "super" {
		return &SendNode{pos: at, Receiver: &VarNode{pos: v.pos, Name: "self"},
			Super: true, Selector: sel, Args: args}
	}
	return &SendNode{pos: at, Receiver: recv, Selector: sel, Args: args}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur
	switch t.Kind {
	case TokIdent:
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch t.Text {
		case "true":
			return &LiteralNode{pos: p.posOf(t), Kind: LitTrue}, nil
		case "false":
			return &LiteralNode{pos: p.posOf(t), Kind: LitFalse}, nil
		case "nil":
			return &LiteralNode{pos: p.posOf(t), Kind: LitNil}, nil
		}
		return &VarNode{pos: p.posOf(t), Name: t.Text}, nil
	case TokInt:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &LiteralNode{pos: p.posOf(t), Kind: LitInt, Int: t.Int}, nil
	case TokFloat:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &LiteralNode{pos: p.posOf(t), Kind: LitFloat, Flt: t.Flt}, nil
	case TokChar:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &LiteralNode{pos: p.posOf(t), Kind: LitChar, Rune: t.Rune}, nil
	case TokString:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &LiteralNode{pos: p.posOf(t), Kind: LitString, Str: t.Text}, nil
	case TokSymbol:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &LiteralNode{pos: p.posOf(t), Kind: LitSymbol, Str: t.Text}, nil
	case TokArrayStart:
		return p.parseLiteralArray()
	case TokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, "')'"); err != nil {
			return nil, err
		}
		return x, nil
	case TokLBracket:
		return p.parseBlock()
	default:
		return nil, p.errf("expected expression, found %s", t)
	}
}

func (p *Parser) parseBlock() (Expr, error) {
	start := p.cur
	if err := p.advance(); err != nil {
		return nil, err
	}
	b := &BlockNode{pos: p.posOf(start)}
	for p.at(TokBlockArg) {
		b.Params = append(b.Params, p.cur.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if len(b.Params) > 0 {
		if _, err := p.expect(TokPipe, "'|' after block arguments"); err != nil {
			return nil, err
		}
	}
	temps, err := p.parseTemps()
	if err != nil {
		return nil, err
	}
	b.Temps = temps
	body, err := p.parseStatements(TokRBracket)
	if err != nil {
		return nil, err
	}
	b.Body = body
	if _, err := p.expect(TokRBracket, "']'"); err != nil {
		return nil, err
	}
	return b, nil
}

// parseLiteralArray parses #( ... ); inside, bare identifiers are
// symbols, nested parens are nested arrays, and true/false/nil denote
// the constants, following Smalltalk-80.
func (p *Parser) parseLiteralArray() (Expr, error) {
	start := p.cur
	if err := p.advance(); err != nil {
		return nil, err
	}
	lit, err := p.parseLiteralArrayBody(p.posOf(start))
	if err != nil {
		return nil, err
	}
	return lit, nil
}

func (p *Parser) parseLiteralArrayBody(at pos) (*LiteralNode, error) {
	p.lex.arrayDepth++
	defer func() { p.lex.arrayDepth-- }()
	arr := &LiteralNode{pos: at, Kind: LitArray, Arr: []LiteralNode{}}
	for {
		t := p.cur
		switch t.Kind {
		case TokRParen:
			if err := p.advance(); err != nil {
				return nil, err
			}
			return arr, nil
		case TokEOF:
			return nil, p.errf("unterminated literal array")
		case TokInt:
			arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitInt, Int: t.Int})
		case TokFloat:
			arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitFloat, Flt: t.Flt})
		case TokChar:
			arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitChar, Rune: t.Rune})
		case TokString:
			arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitString, Str: t.Text})
		case TokSymbol:
			arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitSymbol, Str: t.Text})
		case TokIdent:
			switch t.Text {
			case "true":
				arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitTrue})
			case "false":
				arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitFalse})
			case "nil":
				arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitNil})
			default:
				arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitSymbol, Str: t.Text})
			}
		case TokKeyword:
			// Adjacent keywords in a literal array form one symbol.
			sym := t.Text
			for {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if p.at(TokKeyword) {
					sym += p.cur.Text
					continue
				}
				break
			}
			arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitSymbol, Str: sym})
			continue // already advanced
		case TokBinary, TokPipe:
			arr.Arr = append(arr.Arr, LiteralNode{pos: p.posOf(t), Kind: LitSymbol, Str: t.Text})
		case TokLParen, TokArrayStart:
			if err := p.advance(); err != nil {
				return nil, err
			}
			sub, err := p.parseLiteralArrayBody(p.posOf(t))
			if err != nil {
				return nil, err
			}
			arr.Arr = append(arr.Arr, *sub)
			continue // already advanced past ')'
		default:
			return nil, p.errf("bad literal array element %s", t)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}
