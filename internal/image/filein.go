// Package image builds the Multiprocessor Smalltalk virtual image: it
// bootstraps the kernel classes (interp.Genesis), then files in the
// embedded Smalltalk source library using the classic chunk format, the
// same way a Smalltalk-80 image is built from sources. The library
// replaces the ParcPlace VI2.1 image the paper used (see DESIGN.md §3).
package image

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"mst/internal/compiler"
	"mst/internal/firefly"
	"mst/internal/interp"
	"mst/internal/object"
)

// Chunk-format reader. The format, from Smalltalk-80's sources files:
//
//   - text up to an unescaped '!' is one chunk ("!!" escapes a bang);
//   - a chunk is normally an expression to evaluate;
//   - a '!' immediately preceding a chunk makes that chunk a *reader
//     command*: `Class methodsFor: 'category'` switches to method mode,
//     in which following chunks are method bodies until an empty chunk.
//
// Class-definition expressions (`Super subclass: #Name ...`) are
// interpreted structurally; all other expression chunks are evaluated
// as DoIts.
//
// Every byte the reader looks for is ASCII, which no byte of a multi-byte
// UTF-8 rune can equal, so it scans bytes and a chunk is a substring of
// the source; only a chunk with a "!!" is built.

type chunkReader struct {
	src string
	pos int
	// line tracks the 1-based line of pos for error messages.
	line int
}

func newChunkReader(src string) *chunkReader {
	if !utf8.ValidString(src) {
		// Read runes as text: each byte that is not UTF-8 becomes U+FFFD.
		src = string([]rune(src))
	}
	return &chunkReader{src: src, line: 1}
}

// next returns the next top-level chunk, the line of its first non-blank
// byte, whether it was introduced by '!' (a reader command), and whether
// a chunk was available at all. Inside a method-reading section use
// nextRaw, where a bang never means "command" and a whitespace-only
// chunk terminates the section.
func (r *chunkReader) next() (chunk string, line int, command, ok bool) {
	// Skip whitespace (between top-level chunks only).
	for r.pos < len(r.src) {
		c := r.src[r.pos]
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
		if c == '\n' {
			r.line++
		}
		r.pos++
	}
	if r.pos >= len(r.src) {
		return "", 0, false, false
	}
	if r.src[r.pos] == '!' {
		command = true
		r.pos++
	}
	chunk, line, ok = r.nextRaw()
	return chunk, line, command, ok
}

// nextRaw reads one raw chunk: text up to an unescaped '!' ("!!" is a
// literal bang), and the line of its first non-blank byte. A
// whitespace-only result is the empty chunk that ends a method-reading
// section.
func (r *chunkReader) nextRaw() (chunk string, line int, ok bool) {
	if r.pos >= len(r.src) {
		return "", 0, false
	}
	var b strings.Builder // the chunk so far, once a "!!" is in it
	escaped := false
	start := r.pos
	line = r.line
	for {
		end := strings.IndexByte(r.src[r.pos:], '!')
		if end < 0 {
			end = len(r.src)
		} else {
			end += r.pos
		}
		r.line += strings.Count(r.src[r.pos:end], "\n")
		r.pos = end
		if end+1 < len(r.src) && r.src[end+1] == '!' {
			b.WriteString(r.src[start : end+1]) // the text and one bang
			escaped = true
			r.pos += 2
			start = r.pos
			continue
		}
		s := r.src[start:end]
		if escaped {
			b.WriteString(s)
			s = b.String()
		}
		line += strings.Count(s[:len(s)-len(strings.TrimLeftFunc(s, unicode.IsSpace))], "\n")
		if end < len(r.src) {
			r.pos++ // past the bang
			return s, line, true
		}
		// Trailing text without a bang: a final chunk (or nothing).
		if strings.TrimSpace(s) == "" {
			return "", 0, false
		}
		return s, line, true
	}
}

// FileIn reads Smalltalk source in chunk format into the image. An error
// names the file and the line at fault once. A source is read once per
// process, into a plan (interp.FileInPlan); every FileIn of the same text
// replays that plan against vm.
func FileIn(vm *interp.VM, name, source string) error {
	pl := interp.FileInPlan(source, readPlan).(plan)
	for i := range pl {
		s := &pl[i]
		line, err := s.line, error(nil)
		if s.header == "" {
			err = s.fileInExpression(vm)
		} else {
			line, err = s.fileInMethods(vm)
		}
		if err != nil {
			return fmt.Errorf("%s:%d: %w", name, line, err)
		}
	}
	return nil
}

// plan is what reading a source yields: its top-level chunks in order, up
// to the first error the text alone decides. It holds no oop, so every
// image replays it alike.
type plan []step

// step is one top-level chunk whose text starts at line: a methodsFor:
// section (header set) or an expression.
type step struct {
	line int
	err  error // the text's own error: a bad header or expression, or a section with no end

	// A section: its header, lexed, and its method chunks.
	header, class, category string
	meta                    bool
	methods                 []methodChunk

	// An expression: its text and the class definition it is, if it is
	// one. A doIt keeps no parse: it runs through vm.Evaluate, whose memo
	// holds its compile.
	body string
	def  *compiler.SendNode
}

// methodChunk is one method body of a section, its text starting at line.
type methodChunk struct {
	line int
	body string
}

// readPlan reads source into its plan: the chunk split, each methodsFor:
// header lexed and each expression chunk parsed for its own errors and
// class definition.
func readPlan(source string) any {
	r := newChunkReader(source)
	var pl plan
	for {
		chunk, line, command, ok := r.next()
		if !ok {
			return pl
		}
		s := step{line: line}
		body := strings.TrimSpace(chunk)
		switch {
		case body == "":
			continue
		case command:
			s.header = body
			if s.class, s.meta, s.category, s.err = lexMethodsFor(body); s.err == nil {
				s.methods, s.err = readMethods(r, body)
			}
		default:
			s.body = body
			var expr *compiler.MethodNode
			if expr, s.err = compiler.ParseExpression(body); s.err == nil {
				s.def = classDefSend(expr)
			}
		}
		pl = append(pl, s)
		if s.err != nil {
			return pl
		}
	}
}

// readMethods reads a section's method chunks up to the empty chunk that
// ends it.
func readMethods(r *chunkReader, header string) ([]methodChunk, error) {
	var ms []methodChunk
	for {
		chunk, line, ok := r.nextRaw()
		if !ok {
			return ms, fmt.Errorf("unterminated methodsFor: %q", header)
		}
		body := strings.TrimSpace(chunk)
		if body == "" {
			return ms, nil
		}
		ms = append(ms, methodChunk{line, body})
	}
}

// fileInMethods installs a section's methods into its class. With an
// error it answers the line at fault: the method's, else the header's.
func (s *step) fileInMethods(vm *interp.VM) (int, error) {
	if s.class == "" {
		return s.line, s.err // the header did not lex
	}
	class, err := classNamed(vm, s.class, s.meta)
	if err != nil {
		return s.line, err
	}
	for _, m := range s.methods {
		if err := vm.InstallSource(class, m.body, s.category); err != nil {
			return m.line, err
		}
	}
	return s.line, s.err // nil, or the section's missing end
}

// lexMethodsFor reads `Name methodsFor: 'cat'` and
// `Name class methodsFor: 'cat'` with the lexer: four tokens at most.
func lexMethodsFor(header string) (class string, meta bool, category string, err error) {
	var buf [4]compiler.Token
	toks := buf[:0]
	lx := compiler.NewLexer(header)
	for {
		t, err := lx.Next()
		if err != nil {
			return "", false, "", fmt.Errorf("bad methodsFor header %q: %v", header, err)
		}
		if t.Kind == compiler.TokEOF {
			break
		}
		if len(toks) == len(buf) {
			return "", false, "", fmt.Errorf("bad methodsFor header %q", header)
		}
		toks = append(toks, t)
	}
	meta = len(toks) == 4 && toks[1].Kind == compiler.TokIdent && toks[1].Text == "class"
	if meta {
		toks = append(toks[:1], toks[2:]...)
	}
	if len(toks) != 3 || toks[1].Kind != compiler.TokKeyword || toks[1].Text != "methodsFor:" {
		return "", false, "", fmt.Errorf("expected `Class methodsFor: 'category'`, got %q", header)
	}
	if toks[2].Kind != compiler.TokString {
		return "", false, "", fmt.Errorf("methodsFor: category must be a string in %q", header)
	}
	if toks[0].Kind != compiler.TokIdent {
		return "", false, "", fmt.Errorf("bad class reference in %q", header)
	}
	return toks[0].Text, meta, toks[2].Text, nil
}

// classNamed answers the class a methodsFor: header names, or its
// metaclass.
func classNamed(vm *interp.VM, name string, meta bool) (object.OOP, error) {
	cls := vm.SysDictAt(name)
	if cls == object.Invalid || cls == object.Nil {
		return object.Nil, fmt.Errorf("unknown class %q", name)
	}
	if meta {
		cls = vm.H.ClassOf(cls)
	}
	return cls, nil
}

// classDefSelectors maps class-definition message selectors to layouts.
var classDefSelectors = map[string]interp.ClassKind{
	"subclass:instanceVariableNames:category:":             interp.KindFixed,
	"variableSubclass:instanceVariableNames:category:":     interp.KindIdxPointers,
	"variableByteSubclass:instanceVariableNames:category:": interp.KindIdxBytes,
	"variableWordSubclass:instanceVariableNames:category:": interp.KindIdxWords,
}

// fileInExpression runs one expression chunk: a class definition is
// interpreted structurally, everything else is evaluated as a request
// is, so a boot after the first compiles no doIt.
func (s *step) fileInExpression(vm *interp.VM) error {
	switch {
	case s.err != nil:
		return s.err // the chunk does not parse
	case s.def != nil:
		return defineClass(vm, s.def)
	}
	_, err := vm.Evaluate(s.body)
	if cerr := errors.Unwrap(err); cerr != nil {
		return cerr // "compile DoIt: …", without the package's prefix
	}
	return err
}

// classDefSend returns the class-definition send when the parsed chunk
// is exactly one.
func classDefSend(node *compiler.MethodNode) *compiler.SendNode {
	if len(node.Body) != 1 {
		return nil
	}
	ret, ok := node.Body[0].(*compiler.ReturnStmt)
	if !ok {
		return nil
	}
	send, ok := ret.X.(*compiler.SendNode)
	if !ok {
		return nil
	}
	if _, ok := classDefSelectors[send.Selector]; !ok {
		return nil
	}
	return send
}

func defineClass(vm *interp.VM, send *compiler.SendNode) error {
	kind := classDefSelectors[send.Selector]
	superVar, ok := send.Receiver.(*compiler.VarNode)
	if !ok {
		return fmt.Errorf("class definition needs a superclass name")
	}
	super := vm.SysDictAt(superVar.Name)
	if super == object.Invalid || (super == object.Nil && superVar.Name != "nil") {
		return fmt.Errorf("unknown superclass %q", superVar.Name)
	}
	nameLit, ok := send.Args[0].(*compiler.LiteralNode)
	if !ok || nameLit.Kind != compiler.LitSymbol {
		return fmt.Errorf("class name must be a symbol literal")
	}
	ivLit, ok := send.Args[1].(*compiler.LiteralNode)
	if !ok || ivLit.Kind != compiler.LitString {
		return fmt.Errorf("instanceVariableNames: must be a string literal")
	}
	catLit, ok := send.Args[2].(*compiler.LiteralNode)
	if !ok || catLit.Kind != compiler.LitString {
		return fmt.Errorf("category: must be a string literal")
	}
	if existing := vm.SysDictAt(nameLit.Str); existing != object.Invalid && existing != object.Nil {
		return fmt.Errorf("class %q already defined", nameLit.Str)
	}
	return vm.Do(func(p *firefly.Proc) {
		vm.CreateClass(p, nameLit.Str, super, strings.Fields(ivLit.Str), kind, catLit.Str)
	})
}
