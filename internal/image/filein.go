// Package image builds the Multiprocessor Smalltalk virtual image: it
// bootstraps the kernel classes (interp.Genesis), then files in the
// embedded Smalltalk source library using the classic chunk format, the
// same way a Smalltalk-80 image is built from sources. The library
// replaces the ParcPlace VI2.1 image the paper used (see DESIGN.md §3).
package image

import (
	"fmt"
	"strings"
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

// next returns the next top-level chunk, whether it was introduced by
// '!' (a reader command), and whether a chunk was available at all.
// Inside a method-reading section use nextRaw, where a bang never means
// "command" and a whitespace-only chunk terminates the section.
func (r *chunkReader) next() (chunk string, command bool, ok bool) {
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
		return "", false, false
	}
	if r.src[r.pos] == '!' {
		command = true
		r.pos++
	}
	chunk, ok = r.nextRaw()
	return chunk, command, ok
}

// nextRaw reads one raw chunk: text up to an unescaped '!' ("!!" is a
// literal bang). A whitespace-only result is the empty chunk that ends
// a method-reading section.
func (r *chunkReader) nextRaw() (string, bool) {
	if r.pos >= len(r.src) {
		return "", false
	}
	var b strings.Builder // the chunk so far, once a "!!" is in it
	escaped := false
	start := r.pos
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
		if end < len(r.src) {
			r.pos++ // past the bang
			return s, true
		}
		// Trailing text without a bang: a final chunk (or nothing).
		if strings.TrimSpace(s) == "" {
			return "", false
		}
		return s, true
	}
}

// FileIn reads Smalltalk source in chunk format into the image. name is
// used in error messages.
func FileIn(vm *interp.VM, name, source string) error {
	r := newChunkReader(source)
	for {
		startLine := r.line
		chunk, command, ok := r.next()
		if !ok {
			return nil
		}
		body := strings.TrimSpace(chunk)
		if body == "" {
			continue
		}
		if command {
			if err := fileInMethods(vm, r, name, body); err != nil {
				return fmt.Errorf("%s:%d: %w", name, startLine, err)
			}
			continue
		}
		if err := fileInExpression(vm, name, startLine, body); err != nil {
			return err
		}
	}
}

// fileInMethods handles `Class methodsFor: 'cat'` followed by method
// chunks up to an empty chunk.
func fileInMethods(vm *interp.VM, r *chunkReader, name, header string) error {
	class, category, err := parseMethodsFor(vm, header)
	if err != nil {
		return err
	}
	// One environment serves the section: it holds the class's instance
	// variable names as Go strings, which no method chunk changes and no
	// scavenge moves.
	env := vm.EnvForClass(class)
	for {
		startLine := r.line
		chunk, ok := r.nextRaw()
		if !ok {
			return fmt.Errorf("unterminated methodsFor: %q", header)
		}
		body := strings.TrimSpace(chunk)
		if body == "" {
			return nil
		}
		if err := vm.InstallSource(class, env, body, category); err != nil {
			return fmt.Errorf("%s:%d: %w", name, startLine, err)
		}
	}
}

// parseMethodsFor interprets `Name methodsFor: 'cat'` and
// `Name class methodsFor: 'cat'`.
func parseMethodsFor(vm *interp.VM, header string) (object.OOP, string, error) {
	node, err := compiler.ParseExpression(header)
	if err != nil {
		return object.Nil, "", fmt.Errorf("bad methodsFor header %q: %v", header, err)
	}
	if len(node.Body) != 1 {
		return object.Nil, "", fmt.Errorf("bad methodsFor header %q", header)
	}
	ret, okRet := node.Body[0].(*compiler.ReturnStmt)
	if !okRet {
		return object.Nil, "", fmt.Errorf("bad methodsFor header %q", header)
	}
	send, okSend := ret.X.(*compiler.SendNode)
	if !okSend || send.Selector != "methodsFor:" || len(send.Args) != 1 {
		return object.Nil, "", fmt.Errorf("expected `Class methodsFor: 'category'`, got %q", header)
	}
	lit, okLit := send.Args[0].(*compiler.LiteralNode)
	if !okLit || lit.Kind != compiler.LitString {
		return object.Nil, "", fmt.Errorf("methodsFor: category must be a string in %q", header)
	}
	category := lit.Str

	meta := false
	recv := send.Receiver
	if inner, okInner := recv.(*compiler.SendNode); okInner && inner.Selector == "class" && len(inner.Args) == 0 {
		meta = true
		recv = inner.Receiver
	}
	v, okVar := recv.(*compiler.VarNode)
	if !okVar {
		return object.Nil, "", fmt.Errorf("bad class reference in %q", header)
	}
	cls := vm.SysDictAt(v.Name)
	if cls == object.Invalid || cls == object.Nil {
		return object.Nil, "", fmt.Errorf("unknown class %q", v.Name)
	}
	if meta {
		cls = vm.H.ClassOf(cls)
	}
	return cls, category, nil
}

// classDefSelectors maps class-definition message selectors to layouts.
var classDefSelectors = map[string]interp.ClassKind{
	"subclass:instanceVariableNames:category:":             interp.KindFixed,
	"variableSubclass:instanceVariableNames:category:":     interp.KindIdxPointers,
	"variableByteSubclass:instanceVariableNames:category:": interp.KindIdxBytes,
	"variableWordSubclass:instanceVariableNames:category:": interp.KindIdxWords,
}

// fileInExpression evaluates one expression chunk: class definitions
// are interpreted structurally, everything else runs as a DoIt generated
// from the one parse. A chunk runs once, so it stays out of the doIt memo.
func fileInExpression(vm *interp.VM, name string, line int, body string) error {
	node, err := compiler.ParseExpression(body)
	if err != nil {
		return fmt.Errorf("%s:%d: %v", name, line, err)
	}
	if send := classDefSend(node); send != nil {
		if err := defineClass(vm, send); err != nil {
			return fmt.Errorf("%s:%d: %w", name, line, err)
		}
		return nil
	}
	m, err := compiler.Generate(node, vm.EnvForClass(vm.Specials.UndefinedObject), body)
	if err != nil {
		return fmt.Errorf("%s:%d: compile DoIt: %w", name, line, err)
	}
	if _, err := vm.RunDoIt(m); err != nil {
		return fmt.Errorf("%s:%d: %w", name, line, err)
	}
	return nil
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
		vm.CreateClass(p, nameLit.Str, super, fieldsOf(ivLit.Str), kind, catLit.Str)
	})
}

func fieldsOf(s string) []string {
	return strings.Fields(s)
}
