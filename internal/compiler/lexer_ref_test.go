package compiler

import (
	"fmt"
	"strings"
	"unicode"
)

// refLexer is the rune lexer Lexer replaced, kept as the reference that
// FuzzLexerMatchesReference holds Lexer to: it converts the source to
// []rune, builds every token text, and renders and scans numbers through
// fmt. It shares only Token and Error with the lexer under test.
type refLexer struct {
	src        []rune
	pos        int
	line       int
	col        int
	prev       TokKind
	arrayDepth int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: []rune(src), line: 1, col: 1}
}

const refBinaryChars = "+-*/~<>=&|@%,?!\\"

func refIsBinaryChar(r rune) bool { return strings.ContainsRune(refBinaryChars, r) }
func refIsIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func refIsIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

func refOperandEnd(k TokKind) bool {
	switch k {
	case TokIdent, TokInt, TokFloat, TokChar, TokString, TokSymbol,
		TokRParen, TokRBracket:
		return true
	}
	return false
}

func (l *refLexer) errf(format string, args ...interface{}) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *refLexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) peekAt(n int) rune {
	if l.pos+n >= len(l.src) {
		return 0
	}
	return l.src[l.pos+n]
}

func (l *refLexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *refLexer) skipBlanks() error {
	for l.pos < len(l.src) {
		r := l.peek()
		if unicode.IsSpace(r) {
			l.advance()
			continue
		}
		if r == '"' {
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return l.errf("unterminated comment")
				}
				if l.advance() == '"' {
					if l.peek() == '"' {
						l.advance()
						continue
					}
					break
				}
			}
			continue
		}
		break
	}
	return nil
}

func (l *refLexer) Next() (Token, error) {
	t, err := l.next()
	if err == nil {
		l.prev = t.Kind
	}
	return t, err
}

func (l *refLexer) next() (Token, error) {
	if err := l.skipBlanks(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	r := l.peek()
	switch {
	case refIsIdentStart(r):
		start := l.pos
		for l.pos < len(l.src) && refIsIdentPart(l.peek()) {
			l.advance()
		}
		text := string(l.src[start:l.pos])
		if l.peek() == ':' && l.peekAt(1) != '=' {
			l.advance()
			tok.Kind = TokKeyword
			tok.Text = text + ":"
			return tok, nil
		}
		tok.Kind = TokIdent
		tok.Text = text
		return tok, nil

	case unicode.IsDigit(r):
		return l.lexNumber(tok, false)

	case r == '-' && unicode.IsDigit(l.peekAt(1)) && (l.arrayDepth > 0 || !refOperandEnd(l.prev)):
		l.advance()
		return l.lexNumber(tok, true)

	case r == '$':
		l.advance()
		if l.pos >= len(l.src) {
			return tok, l.errf("character literal at end of input")
		}
		tok.Kind = TokChar
		tok.Rune = l.advance()
		tok.Text = "$" + string(tok.Rune)
		return tok, nil

	case r == '\'':
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return tok, l.errf("unterminated string")
			}
			c := l.advance()
			if c == '\'' {
				if l.peek() == '\'' {
					l.advance()
					b.WriteRune('\'')
					continue
				}
				break
			}
			b.WriteRune(c)
		}
		tok.Kind = TokString
		tok.Text = b.String()
		return tok, nil

	case r == '#':
		l.advance()
		switch {
		case l.peek() == '(':
			l.advance()
			tok.Kind = TokArrayStart
			tok.Text = "#("
			return tok, nil
		case l.peek() == '\'':
			l.advance()
			var b strings.Builder
			for {
				if l.pos >= len(l.src) {
					return tok, l.errf("unterminated symbol")
				}
				c := l.advance()
				if c == '\'' {
					if l.peek() == '\'' {
						l.advance()
						b.WriteRune('\'')
						continue
					}
					break
				}
				b.WriteRune(c)
			}
			tok.Kind = TokSymbol
			tok.Text = b.String()
			return tok, nil
		case refIsIdentStart(l.peek()):
			var b strings.Builder
			for {
				start := l.pos
				for l.pos < len(l.src) && refIsIdentPart(l.peek()) {
					l.advance()
				}
				b.WriteString(string(l.src[start:l.pos]))
				if l.peek() == ':' {
					l.advance()
					b.WriteByte(':')
					if refIsIdentStart(l.peek()) {
						continue
					}
				}
				break
			}
			tok.Kind = TokSymbol
			tok.Text = b.String()
			return tok, nil
		case refIsBinaryChar(l.peek()):
			var b strings.Builder
			for l.pos < len(l.src) && refIsBinaryChar(l.peek()) {
				b.WriteRune(l.advance())
			}
			tok.Kind = TokSymbol
			tok.Text = b.String()
			return tok, nil
		default:
			return tok, l.errf("malformed symbol after #")
		}

	case r == '(':
		l.advance()
		tok.Kind = TokLParen
		tok.Text = "("
		return tok, nil
	case r == ')':
		l.advance()
		tok.Kind = TokRParen
		tok.Text = ")"
		return tok, nil
	case r == '[':
		l.advance()
		tok.Kind = TokLBracket
		tok.Text = "["
		return tok, nil
	case r == ']':
		l.advance()
		tok.Kind = TokRBracket
		tok.Text = "]"
		return tok, nil
	case r == '.':
		l.advance()
		tok.Kind = TokDot
		tok.Text = "."
		return tok, nil
	case r == ';':
		l.advance()
		tok.Kind = TokSemi
		tok.Text = ";"
		return tok, nil
	case r == '^':
		l.advance()
		tok.Kind = TokCaret
		tok.Text = "^"
		return tok, nil
	case r == ':':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			tok.Kind = TokAssign
			tok.Text = ":="
			return tok, nil
		}
		if refIsIdentStart(l.peek()) {
			start := l.pos
			for l.pos < len(l.src) && refIsIdentPart(l.peek()) {
				l.advance()
			}
			tok.Kind = TokBlockArg
			tok.Text = string(l.src[start:l.pos])
			return tok, nil
		}
		return tok, l.errf("unexpected ':'")

	case refIsBinaryChar(r):
		var b strings.Builder
		for l.pos < len(l.src) && refIsBinaryChar(l.peek()) {
			b.WriteRune(l.advance())
		}
		text := b.String()
		if text == "|" {
			tok.Kind = TokPipe
			tok.Text = "|"
			return tok, nil
		}
		tok.Kind = TokBinary
		tok.Text = text
		return tok, nil

	default:
		return tok, l.errf("unexpected character %q", r)
	}
}

func (l *refLexer) lexNumber(tok Token, neg bool) (Token, error) {
	digits := func(valid func(rune) bool) string {
		start := l.pos
		for l.pos < len(l.src) && valid(l.peek()) {
			l.advance()
		}
		return string(l.src[start:l.pos])
	}
	intPart := digits(unicode.IsDigit)

	if l.peek() == 'r' {
		var radix int64
		for _, c := range intPart {
			radix = radix*10 + int64(c-'0')
		}
		if radix < 2 || radix > 36 {
			return tok, l.errf("bad radix %s", intPart)
		}
		l.advance()
		start := l.pos
		var v int64
		for l.pos < len(l.src) {
			c := l.peek()
			var d int64 = -1
			switch {
			case unicode.IsDigit(c):
				d = int64(c - '0')
			case c >= 'A' && c <= 'Z':
				d = int64(c-'A') + 10
			}
			if d < 0 || d >= radix {
				break
			}
			v = v*radix + d
			l.advance()
		}
		if l.pos == start {
			return tok, l.errf("missing digits after radix")
		}
		if neg {
			v = -v
		}
		tok.Kind = TokInt
		tok.Int = v
		tok.Text = fmt.Sprintf("%d", v)
		return tok, nil
	}

	isFloat := false
	fracPart := ""
	if l.peek() == '.' && unicode.IsDigit(l.peekAt(1)) {
		l.advance()
		isFloat = true
		fracPart = digits(unicode.IsDigit)
	}
	expPart := ""
	if l.peek() == 'e' && (unicode.IsDigit(l.peekAt(1)) ||
		(l.peekAt(1) == '-' && unicode.IsDigit(l.peekAt(2)))) {
		l.advance()
		isFloat = true
		if l.peek() == '-' {
			l.advance()
			expPart = "-"
		}
		expPart += digits(unicode.IsDigit)
	}

	if isFloat {
		var f float64
		text := intPart
		if fracPart != "" {
			text += "." + fracPart
		}
		if expPart != "" {
			text += "e" + expPart
		}
		if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
			return tok, l.errf("bad float %q", text)
		}
		if neg {
			f = -f
		}
		tok.Kind = TokFloat
		tok.Flt = f
		tok.Text = text
		return tok, nil
	}

	var v int64
	for _, c := range intPart {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	tok.Kind = TokInt
	tok.Int = v
	tok.Text = fmt.Sprintf("%d", v)
	return tok, nil
}
