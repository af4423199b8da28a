package compiler

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	l := NewLexer(src)
	var out []Token
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		if tok.Kind == TokEOF {
			return out
		}
		out = append(out, tok)
	}
}

func TestLexIdentifiersAndKeywords(t *testing.T) {
	toks := lexAll(t, "foo at:put: Bar_1")
	if len(toks) != 4 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "foo" {
		t.Fatalf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != TokKeyword || toks[1].Text != "at:" {
		t.Fatalf("tok1 = %+v", toks[1])
	}
	if toks[2].Kind != TokKeyword || toks[2].Text != "put:" {
		t.Fatalf("tok2 = %+v", toks[2])
	}
	if toks[3].Kind != TokIdent || toks[3].Text != "Bar_1" {
		t.Fatalf("tok3 = %+v", toks[3])
	}
}

func TestLexAssignVsKeyword(t *testing.T) {
	toks := lexAll(t, "x := y")
	if len(toks) != 3 || toks[1].Kind != TokAssign {
		t.Fatalf("toks = %v", toks)
	}
}

func TestLexNumbers(t *testing.T) {
	toks := lexAll(t, "42 16rFF 2r101 3.25 1.5e3 1e-2 0")
	wantInts := map[int]int64{0: 42, 1: 255, 2: 5, 6: 0}
	for i, v := range wantInts {
		if toks[i].Kind != TokInt || toks[i].Int != v {
			t.Errorf("tok%d = %+v, want int %d", i, toks[i], v)
		}
	}
	if toks[3].Kind != TokFloat || toks[3].Flt != 3.25 {
		t.Errorf("tok3 = %+v", toks[3])
	}
	if toks[4].Kind != TokFloat || toks[4].Flt != 1500 {
		t.Errorf("tok4 = %+v", toks[4])
	}
	if toks[5].Kind != TokFloat || toks[5].Flt != 0.01 {
		t.Errorf("tok5 = %+v", toks[5])
	}
}

func TestLexNegativeNumbersVsMinus(t *testing.T) {
	toks := lexAll(t, "3 - 4")
	if len(toks) != 3 || toks[1].Kind != TokBinary {
		t.Fatalf("spaced minus: %v", toks)
	}
	toks = lexAll(t, "3 -4") // binary minus in Smalltalk-80 terms? No: operand follows operand
	// Our rule: after an operand, "-4" is binary minus then 4.
	if len(toks) != 3 || toks[1].Kind != TokBinary || toks[2].Int != 4 {
		t.Fatalf("adjacent minus after operand: %v", toks)
	}
	toks = lexAll(t, "foo: -4")
	if len(toks) != 2 || toks[1].Kind != TokInt || toks[1].Int != -4 {
		t.Fatalf("negative literal after keyword: %v", toks)
	}
	toks = lexAll(t, "(-4)")
	if toks[1].Kind != TokInt || toks[1].Int != -4 {
		t.Fatalf("negative after lparen: %v", toks)
	}
}

func TestLexStringsAndChars(t *testing.T) {
	toks := lexAll(t, "'it''s' $a $  'x'")
	if toks[0].Kind != TokString || toks[0].Text != "it's" {
		t.Fatalf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != TokChar || toks[1].Rune != 'a' {
		t.Fatalf("tok1 = %+v", toks[1])
	}
	if toks[2].Kind != TokChar || toks[2].Rune != ' ' {
		t.Fatalf("tok2 = %+v", toks[2])
	}
	if toks[3].Kind != TokString || toks[3].Text != "x" {
		t.Fatalf("tok3 = %+v", toks[3])
	}
}

func TestLexSymbols(t *testing.T) {
	toks := lexAll(t, "#foo #at:put: #+ #'hello world' #(1 2)")
	if toks[0].Kind != TokSymbol || toks[0].Text != "foo" {
		t.Fatalf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != TokSymbol || toks[1].Text != "at:put:" {
		t.Fatalf("tok1 = %+v", toks[1])
	}
	if toks[2].Kind != TokSymbol || toks[2].Text != "+" {
		t.Fatalf("tok2 = %+v", toks[2])
	}
	if toks[3].Kind != TokSymbol || toks[3].Text != "hello world" {
		t.Fatalf("tok3 = %+v", toks[3])
	}
	if toks[4].Kind != TokArrayStart {
		t.Fatalf("tok4 = %+v", toks[4])
	}
}

func TestLexBinarySelectors(t *testing.T) {
	toks := lexAll(t, "a <= b ~= c // d \\\\ e @ f")
	kinds := []string{"<=", "~=", "//", "\\\\", "@"}
	j := 0
	for _, tok := range toks {
		if tok.Kind == TokBinary {
			if tok.Text != kinds[j] {
				t.Fatalf("binary %d = %q, want %q", j, tok.Text, kinds[j])
			}
			j++
		}
	}
	if j != len(kinds) {
		t.Fatalf("found %d binaries", j)
	}
}

func TestLexCommentsSkipped(t *testing.T) {
	toks := lexAll(t, `foo "a comment" bar "with ""quotes"" inside" baz`)
	if len(toks) != 3 {
		t.Fatalf("toks = %v", toks)
	}
}

func TestLexBlockTokens(t *testing.T) {
	toks := lexAll(t, "[:x :y | x + y]")
	if toks[0].Kind != TokLBracket ||
		toks[1].Kind != TokBlockArg || toks[1].Text != "x" ||
		toks[2].Kind != TokBlockArg || toks[2].Text != "y" ||
		toks[3].Kind != TokPipe {
		t.Fatalf("toks = %v", toks)
	}
}

func TestLexPunctuation(t *testing.T) {
	toks := lexAll(t, "^ x . ; ( ) [ ]")
	want := []TokKind{TokCaret, TokIdent, TokDot, TokSemi, TokLParen, TokRParen, TokLBracket, TokRBracket}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("tok%d = %+v, want kind %d", i, toks[i], k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "#", "3r999", "{"} {
		l := NewLexer(src)
		var err error
		for i := 0; i < 10 && err == nil; i++ {
			var tok Token
			tok, err = l.Next()
			if tok.Kind == TokEOF {
				break
			}
		}
		if err == nil {
			t.Errorf("lexing %q produced no error", src)
		}
	}
}

func TestLexLineTracking(t *testing.T) {
	toks := lexAll(t, "a\nb\n  c")
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[2].Line != 3 || toks[2].Col != 3 {
		t.Fatalf("positions: %v", toks)
	}
}

// kernelChunks returns every chunk of the kernel library's sources, read
// from disk: the image package files them in, so this package cannot
// import it.
func kernelChunks(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "image", "st", "*.st"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("kernel sources: %v (%d files)", err, len(files))
	}
	var chunks []string
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, c := range strings.Split(strings.ReplaceAll(string(src), "!!", "\x00"), "!") {
			chunks = append(chunks, strings.ReplaceAll(c, "\x00", "!"))
		}
	}
	return chunks
}

func sameToken(a, b Token) bool {
	fa, fb := math.Float64bits(a.Flt), math.Float64bits(b.Flt)
	a.Flt, b.Flt = 0, 0
	return a == b && fa == fb
}

// FuzzLexerMatchesReference holds the byte lexer to the rune lexer it
// replaced (lexer_ref_test.go): the same tokens, field for field, and the
// same error at the same place, inside a literal array or out of one.
func FuzzLexerMatchesReference(f *testing.F) {
	for _, c := range kernelChunks(f) {
		f.Add(c, false)
	}
	for _, s := range []string{
		"'unterminated", `"unterminated`, "#'unterminated", "$", "x $",
		"'héllo'", "$é", "héllo := $é", "#wörld:dé:", `"ça" ok`,
		"#+", "#at:put:", "#'a''b'", "#(3 -4)", "#(a: b: #c $d 'e' (f -1.5))",
		"3-4", "3 -4", "x-4", "(3)-4", "#a -4",
		"16rFF", "2r102", "36rZZ", "37r1", "3r", "-16r1F", "1.5e-3", "1e400", "1e-400", "2.e3", "3e-x",
		"x:=1", "a::b", "[:a :b | a]", "^self", "a; b. c",
		"0", "-0", "007", "-007", "9223372036854775807", "99999999999999999999", "-9223372036854775808",
		"٣", "1٣.5", "-٣", "2r1٣", "\xff", "'a\xffb'", "$\xff", "#'\xff'", "'it''s'", "a\x00b",
		"x\u00a0y", "x\u0085y", "a\r\nb\tc\vd\fe",
	} {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, src string, inArray bool) {
		l, ref := NewLexer(src), newRefLexer(src)
		if inArray {
			l.arrayDepth, ref.arrayDepth = 1, 1
		}
		for i := 0; ; i++ {
			got, gotErr := l.Next()
			want, wantErr := ref.Next()
			if (gotErr == nil) != (wantErr == nil) ||
				gotErr != nil && *gotErr.(*Error) != *wantErr.(*Error) {
				t.Fatalf("%q token %d: error %v, reference %v", src, i, gotErr, wantErr)
			}
			if wantErr != nil {
				return
			}
			if !sameToken(got, want) {
				t.Fatalf("%q token %d:\n got %+v\nwant %+v", src, i, got, want)
			}
			if want.Kind == TokEOF {
				return
			}
		}
	})
}
