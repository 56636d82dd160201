package mc

import (
	"strings"
	"testing"
	"testing/quick"
)

// tokenize lexes the whole of src, through EOF or the first error.
func tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func lex(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := tokenize(src)
	if err != nil {
		t.Fatalf("tokenize(%q): %v", src, err)
	}
	return toks
}

func TestLexBasics(t *testing.T) {
	toks := lex(t, "int x = 42;")
	kinds := []TokKind{TokKeyword, TokIdent, TokPunct, TokInt, TokPunct, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d kind = %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[3].Int != 42 {
		t.Errorf("literal = %d", toks[3].Int)
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind TokKind
		i    int64
		f    float64
	}{
		{"0", TokInt, 0, 0},
		{"123", TokInt, 123, 0},
		{"0x1F", TokInt, 31, 0},
		{"0XfF", TokInt, 255, 0},
		{"1.5", TokFloat, 0, 1.5},
		{"2.", TokFloat, 0, 2.0},
		{".25", TokFloat, 0, 0.25},
		{"1e3", TokFloat, 0, 1000},
		{"1.5e-2", TokFloat, 0, 0.015},
	}
	for _, tc := range cases {
		toks := lex(t, tc.src)
		if toks[0].Kind != tc.kind {
			t.Errorf("%q: kind = %v, want %v", tc.src, toks[0].Kind, tc.kind)
			continue
		}
		if tc.kind == TokInt && toks[0].Int != tc.i {
			t.Errorf("%q: int = %d, want %d", tc.src, toks[0].Int, tc.i)
		}
		if tc.kind == TokFloat && toks[0].Flt != tc.f {
			t.Errorf("%q: float = %g, want %g", tc.src, toks[0].Flt, tc.f)
		}
	}
}

func TestLexCharAndString(t *testing.T) {
	toks := lex(t, `'a' '\n' '\0' '\\' "hi\tthere\n" ""`)
	if toks[0].Int != 'a' || toks[1].Int != '\n' || toks[2].Int != 0 || toks[3].Int != '\\' {
		t.Errorf("char literals wrong: %v", toks[:4])
	}
	if toks[4].Str != "hi\tthere\n" {
		t.Errorf("string = %q", toks[4].Str)
	}
	if toks[5].Str != "" {
		t.Errorf("empty string = %q", toks[5].Str)
	}
}

func TestLexComments(t *testing.T) {
	toks := lex(t, "a // line comment\n b /* block\n comment */ c")
	if len(toks) != 4 || toks[0].Text != "a" || toks[1].Text != "b" || toks[2].Text != "c" {
		t.Fatalf("comments not skipped: %v", toks)
	}
	if toks[1].Line != 2 {
		t.Errorf("line tracking across comments: %d", toks[1].Line)
	}
}

// TestLexPunctuationMaximalMunch: each punctuator lexes as one token on
// its own, and runs of punctuation split by maximal munch.
func TestLexPunctuationMaximalMunch(t *testing.T) {
	toks := lex(t, "a<<=b >>= << >> <= >= == != ++ -- && ||")
	want := []string{"a", "<<=", "b", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "++", "--", "&&", "||"}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
	for _, p := range []string{
		"<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
		"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
		"(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
	} {
		toks := lex(t, p)
		if len(toks) != 2 || toks[0].Kind != TokPunct || toks[0].Text != p || toks[1].Kind != TokEOF {
			t.Errorf("tokenize(%q) = %v, want one punctuator", p, toks)
		}
	}
	for src, want := range map[string][]string{
		"->":    {"->"},
		"a--b":  {"a", "--", "b"},
		"x<<=1": {"x", "<<=", "1"},
		"a&&&b": {"a", "&&", "&", "b"},
		"!==":   {"!=", "="},
		"p->q":  {"p", "->", "q"},
		"a>>>b": {"a", ">>", ">", "b"},
		"<<<=":  {"<<", "<="},
		"+++=":  {"++", "+="},
		"a-->b": {"a", "--", ">", "b"},
	} {
		toks := lex(t, src)
		var got []string
		for _, tk := range toks[:len(toks)-1] {
			got = append(got, tk.String())
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("tokenize(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "'a", `"unterminated`, "/* no end", `'\q'`} {
		if _, err := tokenize(src); err == nil {
			t.Errorf("tokenize(%q) should fail", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks := lex(t, "a\n  b")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d", toks[1].Line, toks[1].Col)
	}
}

// Property: any decimal integer in [0, 2^31) lexes back to itself.
func TestLexIntRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		if v < 0 {
			v = -v
		}
		toks, err := tokenize(fmtInt(int64(v)))
		return err == nil && toks[0].Kind == TokInt && toks[0].Int == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// Robustness: the lexer must return an error or tokens on arbitrary input,
// never panic or loop.
func TestLexerRobustness(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = tokenize(string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Pathological inputs.
	for _, src := range []string{
		"", "\x00", "/*", "//", "'", "\"", "0x", "1e", "1e+", "...",
		"\xff\xfe", "/* /* */", "'\\", "\"\\", "1.2.3.4", "0x0x",
	} {
		_, _ = tokenize(src) // must not panic
	}
}

// Robustness: the parser and checker must not panic on token soup.
func TestParserRobustness(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Compile(string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	for _, src := range []string{
		"int", "int main", "int main(", "int main()(", "}{",
		"int f(void){return", "int f(void){{{{", "case 1:",
		"int a[99999999];", "void v; int f(void){return v;}",
	} {
		_, _ = Compile(src)
	}
}
