package mc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\nsource:\n%s", err, src)
	}
	return u
}

func TestParseGlobals(t *testing.T) {
	u := parse(t, `
int x;
int y = 3, z = 4;
char buf[128];
char *msg = "hello";
float pi = 3.14;
int grid[2][3] = {{1,2,3},{4,5,6}};
`)
	if len(u.Globals) != 7 {
		t.Fatalf("got %d globals", len(u.Globals))
	}
	if u.Globals[3].Type.Kind != TArray || u.Globals[3].Type.Len != 128 {
		t.Errorf("buf type = %s", u.Globals[3].Type)
	}
	if u.Globals[4].Type.Kind != TPtr {
		t.Errorf("msg type = %s", u.Globals[4].Type)
	}
	g := u.Globals[6]
	if g.Type.Kind != TArray || g.Type.Len != 2 || g.Type.Elem.Len != 3 {
		t.Errorf("grid type = %s", g.Type)
	}
	if len(g.Init.List) != 2 || len(g.Init.List[0].List) != 3 {
		t.Errorf("grid init shape wrong")
	}
}

func TestParseFunction(t *testing.T) {
	u := parse(t, `
int strlen(char *s) {
    int n = 0;
    if (s)
        for (; *s; s++)
            n++;
    return n;
}
`)
	if len(u.Funcs) != 1 {
		t.Fatalf("got %d funcs", len(u.Funcs))
	}
	f := u.Funcs[0]
	if f.Name != "strlen" || len(f.Params) != 1 || f.Params[0].Type.Kind != TPtr {
		t.Errorf("signature wrong: %s(%v)", f.Name, f.Params)
	}
	if len(f.Body.Stmts) != 3 {
		t.Errorf("body has %d statements", len(f.Body.Stmts))
	}
	ifStmt, ok := f.Body.Stmts[1].(*If)
	if !ok {
		t.Fatalf("statement 1 is %T", f.Body.Stmts[1])
	}
	if _, ok := ifStmt.Then.(*For); !ok {
		t.Errorf("then branch is %T", ifStmt.Then)
	}
}

func TestParseArrayParams(t *testing.T) {
	u := parse(t, `void f(int a[], char b[10]) { }`)
	f := u.Funcs[0]
	if f.Params[0].Type.Kind != TPtr || f.Params[1].Type.Kind != TPtr {
		t.Errorf("array params should parse as pointers: %s %s", f.Params[0].Type, f.Params[1].Type)
	}
}

func TestParsePrecedence(t *testing.T) {
	u := parse(t, `int f(void) { return 1 + 2 * 3 == 7 && 4 < 5 | 1; }`)
	ret := u.Funcs[0].Body.Stmts[0].(*Return)
	// Must parse as (((1 + (2*3)) == 7) && ((4<5) | 1))
	and, ok := ret.X.(*Binary)
	if !ok || and.Op != "&&" {
		t.Fatalf("top = %T %v", ret.X, and)
	}
	eq := and.L.(*Binary)
	if eq.Op != "==" {
		t.Errorf("left of && = %s", eq.Op)
	}
	add := eq.L.(*Binary)
	if add.Op != "+" {
		t.Errorf("left of == = %s", add.Op)
	}
	mul := add.R.(*Binary)
	if mul.Op != "*" {
		t.Errorf("right of + = %s", mul.Op)
	}
	or := and.R.(*Binary)
	if or.Op != "|" {
		t.Errorf("right of && = %s", or.Op)
	}
	// Every ordered pair of binary operators: "a op1 b op2 c" groups by
	// precedence, and operators of one level associate to the left
	// (a - b - c is (a - b) - c).
	for l1, ops1 := range precLevels {
		for l2, ops2 := range precLevels {
			for _, op1 := range ops1 {
				for _, op2 := range ops2 {
					src := fmt.Sprintf("int f(int a, int b, int c) { return a %s b %s c; }", op1, op2)
					want := fmt.Sprintf("((a %s b) %s c)", op1, op2)
					if l2 > l1 {
						want = fmt.Sprintf("(a %s (b %s c))", op1, op2)
					}
					ret := parse(t, src).Funcs[0].Body.Stmts[0].(*Return)
					if got := shape(ret.X); got != want {
						t.Errorf("a %s b %s c parses as %s, want %s", op1, op2, got, want)
					}
				}
			}
		}
	}
	for src, want := range map[string]string{
		"a - b - c":           "((a - b) - c)",
		"a / b % c":           "((a / b) % c)",
		"a << b >> c":         "((a << b) >> c)",
		"a || b && c | d":     "(a || (b && (c | d)))",
		"a + b * c - d / e":   "((a + (b * c)) - (d / e))",
		"a == b < c << d + e": "(a == (b < (c << (d + e))))",
	} {
		u := parse(t, "int f(int a, int b, int c, int d, int e) { return "+src+"; }")
		if got := shape(u.Funcs[0].Body.Stmts[0].(*Return).X); got != want {
			t.Errorf("%s parses as %s, want %s", src, got, want)
		}
	}
}

// precLevels lists MC's binary operators by precedence, loosest first,
// as C orders them.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

// shape renders an expression tree of identifiers and binary operators
// with every binary node parenthesized.
func shape(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *Binary:
		return "(" + shape(x.L) + " " + x.Op + " " + shape(x.R) + ")"
	}
	return fmt.Sprintf("%T", e)
}

func TestParseUnaryAndPostfix(t *testing.T) {
	u := parse(t, `int f(int x) { int *p; p = &x; return -*p + x++ - --x; }`)
	stmts := u.Funcs[0].Body.Stmts
	if len(stmts) != 3 {
		t.Fatalf("got %d stmts", len(stmts))
	}
	as := stmts[1].(*ExprStmt).X.(*Assign)
	if _, ok := as.R.(*Unary); !ok {
		t.Errorf("&x is %T", as.R)
	}
}

func TestParseTernaryRightAssoc(t *testing.T) {
	u := parse(t, `int f(int a) { return a ? 1 : a ? 2 : 3; }`)
	ret := u.Funcs[0].Body.Stmts[0].(*Return)
	top := ret.X.(*CondExpr)
	if _, ok := top.F.(*CondExpr); !ok {
		t.Errorf("false arm should be nested ternary, is %T", top.F)
	}
}

func TestParseSwitch(t *testing.T) {
	u := parse(t, `
int f(int c) {
    switch (c) {
    case 1: return 10;
    case -2: return 20;
    case 'x': return 30;
    default: return 0;
    }
}
`)
	sw := u.Funcs[0].Body.Stmts[0].(*Switch)
	if len(sw.Cases) != 4 {
		t.Fatalf("got %d cases", len(sw.Cases))
	}
	if sw.Cases[1].Value != -2 {
		t.Errorf("negative case = %d", sw.Cases[1].Value)
	}
	if sw.Cases[2].Value != 'x' {
		t.Errorf("char case = %d", sw.Cases[2].Value)
	}
	if !sw.Cases[3].IsDefault {
		t.Error("default not recognized")
	}
}

func TestParseLoops(t *testing.T) {
	u := parse(t, `
void f(void) {
    int i;
    while (1) break;
    do i = 0; while (i);
    for (i = 0; i < 10; i++) continue;
    for (int j = 0; j < 5; j++) ;
    for (;;) break;
}
`)
	stmts := u.Funcs[0].Body.Stmts
	if _, ok := stmts[1].(*While); !ok {
		t.Errorf("stmt 1 is %T", stmts[1])
	}
	if _, ok := stmts[2].(*DoWhile); !ok {
		t.Errorf("stmt 2 is %T", stmts[2])
	}
	f3 := stmts[3].(*For)
	if f3.Init == nil || f3.Cond == nil || f3.Post == nil {
		t.Error("for clauses missing")
	}
	f4 := stmts[4].(*For)
	if _, ok := f4.Init.(*DeclStmt); !ok {
		t.Errorf("for-init decl is %T", f4.Init)
	}
	f5 := stmts[5].(*For)
	if f5.Init != nil || f5.Cond != nil || f5.Post != nil {
		t.Error("empty for clauses should be nil")
	}
}

func TestParseCasts(t *testing.T) {
	u := parse(t, `int f(float x) { char *p; p = (char*)0; return (int)x + *(char*)p; }`)
	if u == nil {
		t.Fatal("nil unit")
	}
	ret := u.Funcs[0].Body.Stmts[2].(*Return)
	add := ret.X.(*Binary)
	if _, ok := add.L.(*Cast); !ok {
		t.Errorf("(int)x is %T", add.L)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int;",
		"int f( { }",
		"int f(void) { return }",
		"int f(void) { if }",
		"int f(void) { x = ; }",
		"int a[0];",
		"int f(void) { switch (1) { foo: ; } }",
		"int f(void) { for (int i = 0 i < 3; ) ; }",
		"int f(void) }",
		"int f(void) {",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestLexErrorWinsOverEarlierParseError: a lex error anywhere in the
// source is the error Parse reports, even when a parse error comes
// before it, with the lexer's text and position.
func TestLexErrorWinsOverEarlierParseError(t *testing.T) {
	for _, c := range []struct {
		src       string
		line, col int
		msg       string
	}{
		{"int f( { }\nint g(void) { return 1 @ 2; }", 2, 24, "unexpected character '@'"},
		{"int ;\n/* never closed", 2, 1, "unterminated comment"},
		{"int main(void) { return " + strings.Repeat("(", 2000) + "1; } 'x", 1, 2030, "unterminated character literal"},
	} {
		_, err := Parse(c.src)
		var e *Error
		if !errors.As(err, &e) || e.Line != c.line || e.Col != c.col || e.Msg != c.msg {
			t.Errorf("Parse(%.40q) = %v, want %d:%d: %s", c.src, err, c.line, c.col, c.msg)
		}
	}
}

func TestParseCompoundAssign(t *testing.T) {
	u := parse(t, `void f(int x) { x += 1; x <<= 2; x %= 3; }`)
	ops := []string{"+=", "<<=", "%="}
	for i, s := range u.Funcs[0].Body.Stmts {
		a := s.(*ExprStmt).X.(*Assign)
		if a.Op != ops[i] {
			t.Errorf("stmt %d op = %s, want %s", i, a.Op, ops[i])
		}
	}
}

// TestNestingLimit compiles sources at brserve's 1 MiB source limit
// that nest far past maxNesting. Without the limit the first two end
// the process in a stack overflow and the chain recurses 300k deep in
// check. Each must instead fail with the nesting error at its position,
// within an allocation bound.
func TestNestingLimit(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		line, col int
	}{
		{"500k nested parentheses",
			"int main(void) { return " + strings.Repeat("(", 500_000) + "1" + strings.Repeat(")", 500_000) + "; }", 1, 524},
		{"500k nested blocks",
			"int main(void) " + strings.Repeat("{", 500_000) + strings.Repeat("}", 500_000), 1, 1017},
		{"300k-term chain",
			"int main(void) { int s = 1; return s" + strings.Repeat("+s", 300_000) + "; }", 1, 2032},
	}
	for _, c := range cases {
		if len(c.src) > 1<<20 {
			t.Fatalf("%s: %d bytes, over the 1 MiB source limit", c.name, len(c.src))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Compile(c.src)
		runtime.ReadMemStats(&after)
		var e *Error
		if !errors.As(err, &e) || e.Msg != "nesting exceeds 1000 levels" {
			t.Errorf("%s: err = %v, want the nesting error", c.name, err)
			continue
		}
		if e.Line != c.line || e.Col != c.col {
			t.Errorf("%s: error at %d:%d, want %d:%d", c.name, e.Line, e.Col, c.line, c.col)
		}
		// Measured 12, 1,009 and 2,010 allocations of 888 B, 48 KiB and
		// 126 KiB: the AST stops at the limit, and the parser streams its
		// tokens, so the rest of the source is lexed without being kept.
		if n := after.Mallocs - before.Mallocs; n > 4000 {
			t.Errorf("%s: %d allocations, bound 4000", c.name, n)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 512<<10 {
			t.Errorf("%s: %d bytes allocated, bound 512 KiB", c.name, b)
		}
	}
}
