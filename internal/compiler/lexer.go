// Package compiler implements the Multiprocessor Smalltalk compiler:
// lexer, recursive-descent parser, and bytecode generator for the
// Smalltalk-80 language subset used by the image. The compiler is pure —
// it produces a Method description whose literals are Go values; the
// image layer materializes them as heap objects and installs the method
// in a class's method dictionary.
package compiler

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokKind classifies tokens.
type TokKind int

const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword // trailing colon, e.g. "at:"
	TokBinary  // binary selector, e.g. "+", "<="
	TokInt
	TokFloat
	TokChar
	TokString
	TokSymbol     // #foo, #at:put:, #+, #'quoted'
	TokArrayStart // #(
	TokLParen
	TokRParen
	TokLBracket
	TokRBracket
	TokDot
	TokSemi
	TokCaret
	TokAssign   // :=
	TokPipe     // |
	TokBlockArg // :name
)

// Token is one lexeme with its source position. Text is a substring of
// the source wherever the lexeme's text appears there verbatim; only a
// string or symbol with a doubled quote (or invalid UTF-8) and an
// integer not written in canonical decimal get a string of their own.
type Token struct {
	Kind TokKind
	Text string
	Int  int64
	Flt  float64
	Rune rune
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Error is a compilation error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// BinaryChars are the characters binary selectors are made of.
const BinaryChars = "+-*/~<>=&|@%,?!\\"

// The character classes answer as unicode's do. ASCII is a lookup in
// asciiClass, which is built from unicode; above it, unicode is asked.
const (
	classIdentStart = 1 << iota
	classIdentPart
	classDigit
	classSpace
	classBinary
)

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		r := rune(c)
		if unicode.IsLetter(r) || r == '_' {
			t[c] |= classIdentStart | classIdentPart
		}
		if unicode.IsDigit(r) {
			t[c] |= classIdentPart | classDigit
		}
		if unicode.IsSpace(r) {
			t[c] |= classSpace
		}
		if strings.ContainsRune(BinaryChars, r) {
			t[c] |= classBinary
		}
	}
	return t
}()

func isBinaryChar(r rune) bool {
	return r < utf8.RuneSelf && asciiClass[r]&classBinary != 0
}

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&classIdentStart != 0
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&classIdentPart != 0
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&classDigit != 0
	}
	return unicode.IsDigit(r)
}

func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&classSpace != 0
	}
	return unicode.IsSpace(r)
}

// Lexer tokenizes Smalltalk source. It walks the source by byte and
// decodes a rune only at a byte at or above utf8.RuneSelf; Line and Col
// count runes, as an editor does.
type Lexer struct {
	src  string
	pos  int // byte offset of the next rune
	line int
	col  int
	prev TokKind // previous significant token, for negative-number context

	// arrayDepth tracks literal-array nesting: inside #( ... ) a minus
	// adjacent to digits is always a negative literal (Smalltalk-80
	// literal arrays hold no expressions).
	arrayDepth int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) errf(format string, args ...interface{}) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() rune { return l.peekAt(0) }

// peekAt returns the rune off bytes past the next one, 0 past the end.
// Callers only look past ASCII runes, so off bytes is off runes.
func (l *Lexer) peekAt(off int) rune {
	i := l.pos + off
	if i >= len(l.src) {
		return 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[i:])
	return r
}

func (l *Lexer) advance() rune {
	c := l.src[l.pos]
	if c >= utf8.RuneSelf {
		r, w := utf8.DecodeRuneInString(l.src[l.pos:])
		l.pos += w
		l.col++
		return r
	}
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return rune(c)
}

// skipTo advances to byte end, which must start a rune.
func (l *Lexer) skipTo(end int) {
	seg := l.src[l.pos:end]
	if i := strings.LastIndexByte(seg, '\n'); i >= 0 {
		l.line += strings.Count(seg, "\n")
		l.col = 1
		seg = seg[i+1:]
	}
	l.col += utf8.RuneCountInString(seg)
	l.pos = end
}

// skipIdent consumes identifier characters.
func (l *Lexer) skipIdent() {
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c < utf8.RuneSelf {
			if asciiClass[c]&classIdentPart == 0 {
				return
			}
			l.pos++
			l.col++
			continue
		}
		r, w := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			return
		}
		l.pos += w
		l.col++
	}
}

// digits consumes a run of digits and returns it.
func (l *Lexer) digits() string {
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	return l.src[start:l.pos]
}

// skipBlanks consumes whitespace and comments ("..." with doubled quotes).
func (l *Lexer) skipBlanks() error {
	for l.pos < len(l.src) {
		r := l.peek()
		if isSpace(r) {
			l.advance()
			continue
		}
		if r != '"' {
			break
		}
		l.advance()
		for {
			end := strings.IndexByte(l.src[l.pos:], '"')
			if end < 0 {
				l.skipTo(len(l.src))
				return l.errf("unterminated comment")
			}
			l.skipTo(l.pos + end + 1)
			if l.peek() != '"' {
				break
			}
			l.advance() // doubled quote inside comment
		}
	}
	return nil
}

// quoted consumes the body of a string or quoted symbol up to and past
// its closing quote (the opening one is already consumed) and returns it
// with doubled quotes undone. It is a substring of the source unless a
// quote was doubled or a byte was not UTF-8: those are rebuilt rune by
// rune, an invalid byte becoming utf8.RuneError.
func (l *Lexer) quoted(what string) (string, error) {
	start := l.pos
	plain := true
	for {
		end := strings.IndexByte(l.src[l.pos:], '\'')
		if end < 0 {
			l.skipTo(len(l.src))
			return "", l.errf("unterminated %s", what)
		}
		end += l.pos
		plain = plain && utf8.ValidString(l.src[l.pos:end])
		l.skipTo(end + 1)
		if l.peek() != '\'' {
			s := l.src[start:end]
			if !plain {
				s = unquote(s)
			}
			return s, nil
		}
		l.advance()
		plain = false
	}
}

// unquote undoes doubled quotes in s and replaces invalid bytes.
func unquote(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	second := false
	for _, r := range s {
		if r == '\'' && second {
			second = false
			continue
		}
		second = r == '\''
		b.WriteRune(r)
	}
	return b.String()
}

// operandEnd reports whether the previous token could end an operand, in
// which case a following "-digit" is a binary minus, not a negative
// literal.
func operandEnd(k TokKind) bool {
	switch k {
	case TokIdent, TokInt, TokFloat, TokChar, TokString, TokSymbol,
		TokRParen, TokRBracket:
		return true
	}
	return false
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	t, err := l.next()
	if err == nil {
		l.prev = t.Kind
	}
	return t, err
}

// punct maps each one-character punctuation token to its kind, and every
// other ASCII character to TokEOF.
var punct = [utf8.RuneSelf]TokKind{
	'(': TokLParen, ')': TokRParen, '[': TokLBracket, ']': TokRBracket,
	'.': TokDot, ';': TokSemi, '^': TokCaret,
}

func (l *Lexer) next() (Token, error) {
	if err := l.skipBlanks(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	start := l.pos
	r := l.peek()
	switch {
	case isIdentStart(r):
		l.skipIdent()
		tok.Kind = TokIdent
		if l.peek() == ':' && l.peekAt(1) != '=' {
			l.advance()
			tok.Kind = TokKeyword
		}
		tok.Text = l.src[start:l.pos]
		return tok, nil

	case isDigit(r):
		return l.lexNumber(tok, false)

	case r == '-' && isDigit(l.peekAt(1)) && (l.arrayDepth > 0 || !operandEnd(l.prev)):
		l.advance()
		return l.lexNumber(tok, true)

	case r == '$':
		l.advance()
		if l.pos >= len(l.src) {
			return tok, l.errf("character literal at end of input")
		}
		tok.Kind = TokChar
		tok.Rune = l.advance()
		tok.Text = l.src[start:l.pos]
		if tok.Rune == utf8.RuneError {
			tok.Text = "$" + string(utf8.RuneError) // not the byte that was not UTF-8
		}
		return tok, nil

	case r == '\'':
		l.advance()
		text, err := l.quoted("string")
		if err != nil {
			return tok, err
		}
		tok.Kind = TokString
		tok.Text = text
		return tok, nil

	case r == '#':
		l.advance()
		tok.Kind = TokSymbol
		switch next := l.peek(); {
		case next == '(':
			l.advance()
			tok.Kind = TokArrayStart
			tok.Text = "#("
			return tok, nil
		case next == '\'':
			l.advance()
			text, err := l.quoted("symbol")
			if err != nil {
				return tok, err
			}
			tok.Text = text
			return tok, nil
		case isIdentStart(next):
			for {
				l.skipIdent()
				if l.peek() == ':' {
					l.advance()
					if isIdentStart(l.peek()) {
						continue // multi-keyword symbol
					}
				}
				break
			}
		case isBinaryChar(next):
			for l.pos < len(l.src) && isBinaryChar(l.peek()) {
				l.advance()
			}
		default:
			return tok, l.errf("malformed symbol after #")
		}
		tok.Text = l.src[start+1 : l.pos]
		return tok, nil

	case r < utf8.RuneSelf && punct[r] != TokEOF:
		l.advance()
		tok.Kind = punct[r]
		tok.Text = l.src[start:l.pos]
		return tok, nil

	case r == ':':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			tok.Kind = TokAssign
			tok.Text = ":="
			return tok, nil
		}
		if isIdentStart(l.peek()) {
			l.skipIdent()
			tok.Kind = TokBlockArg
			tok.Text = l.src[start+1 : l.pos]
			return tok, nil
		}
		return tok, l.errf("unexpected ':'")

	case isBinaryChar(r):
		for l.pos < len(l.src) && isBinaryChar(l.peek()) {
			l.advance()
		}
		tok.Kind = TokBinary
		tok.Text = l.src[start:l.pos]
		if tok.Text == "|" {
			tok.Kind = TokPipe
		}
		return tok, nil

	default:
		return tok, l.errf("unexpected character %q", r)
	}
}

// lexNumber scans an integer or float, with optional radix (16rFF) and
// exponent (1.5e3). neg applies a leading minus already consumed.
func (l *Lexer) lexNumber(tok Token, neg bool) (Token, error) {
	start := l.pos
	intPart := l.digits()

	// Radix integer: 16rFF, 2r1010.
	if l.peek() == 'r' {
		var radix int64
		for _, c := range intPart {
			radix = radix*10 + int64(c-'0')
		}
		if radix < 2 || radix > 36 {
			return tok, l.errf("bad radix %s", intPart)
		}
		l.advance()
		digitsAt := l.pos
		var v int64
		for l.pos < len(l.src) {
			c := l.peek()
			var d int64 = -1
			switch {
			case isDigit(c):
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
		if l.pos == digitsAt {
			return tok, l.errf("missing digits after radix")
		}
		if neg {
			v = -v
		}
		tok.Kind = TokInt
		tok.Int = v
		tok.Text = strconv.FormatInt(v, 10)
		return tok, nil
	}

	isFloat := false
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		l.advance()
		isFloat = true
		l.digits()
	}
	if l.peek() == 'e' && (isDigit(l.peekAt(1)) ||
		(l.peekAt(1) == '-' && isDigit(l.peekAt(2)))) {
		l.advance()
		isFloat = true
		if l.peek() == '-' {
			l.advance()
		}
		l.digits()
	}

	if isFloat {
		// The text is intPart[.frac][e[-]exp], which the source spells
		// out verbatim after any minus.
		text := l.src[start:l.pos]
		f, err := parseFloat(text)
		if err != nil {
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
	switch {
	case !canonicalDecimal(intPart, neg):
		tok.Text = strconv.FormatInt(v, 10)
	case neg:
		tok.Text = l.src[start-1 : l.pos]
	default:
		tok.Text = intPart
	}
	return tok, nil
}

// canonicalDecimal reports whether digits, after an optional minus, read
// exactly as strconv.FormatInt renders their value: ASCII, no leading
// zero, no negative zero, and too short to overflow an int64.
func canonicalDecimal(digits string, neg bool) bool {
	if len(digits) > 18 || digits[0] == '0' && (len(digits) > 1 || neg) {
		return false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// parseFloat converts a float token's text. fmt's %g scanner reads the
// longest float prefix of the text, which is all of it unless a
// non-ASCII digit is in it; only that case needs the scanner.
func parseFloat(text string) (float64, error) {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			var f float64
			_, err := fmt.Sscanf(text, "%g", &f)
			return f, err
		}
	}
	return strconv.ParseFloat(text, 64)
}
