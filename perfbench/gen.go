package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"branchreg/internal/driver"
	"branchreg/internal/irexec"
	"branchreg/internal/workloads"
)

// progGen generates random but well-formed MC programs. It follows the
// differential-fuzzing generator in internal/driver's tests (straight-line
// arithmetic, bounded loops, conditionals, helper calls), extended with
// stdin-seeded variables, printed output, a size knob that reaches the
// suite's program sizes, and a long-running variant whose body sits in an
// outer loop.
type progGen struct {
	r    *rand.Rand
	b    strings.Builder
	vars []string
	loop int
}

func newGen(seed int64) *progGen { return &progGen{r: rand.New(rand.NewSource(seed))} }

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(3) == 0 {
			return fmt.Sprintf("%d", g.r.Intn(200)-100)
		}
		return g.vars[g.r.Intn(len(g.vars))]
	}
	op := []string{"+", "-", "*", "&", "|", "^"}[g.r.Intn(6)]
	l, r := g.expr(depth-1), g.expr(depth-1)
	if g.r.Intn(4) == 0 {
		// division guarded against zero
		return fmt.Sprintf("(%s / (1 + ((%s) & 15)))", l, r)
	}
	return fmt.Sprintf("(%s %s %s)", l, op, r)
}

func (g *progGen) cond() string {
	op := []string{"<", "<=", ">", ">=", "==", "!="}[g.r.Intn(6)]
	return fmt.Sprintf("(%s %s %s)", g.expr(1), op, g.expr(1))
}

func (g *progGen) stmt(depth int) {
	switch g.r.Intn(6) {
	case 0, 1:
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.b, "%s = %s;\n", v, g.expr(2))
	case 2:
		v := g.vars[g.r.Intn(len(g.vars))]
		op := []string{"+=", "-=", "^=", "|=", "&="}[g.r.Intn(5)]
		fmt.Fprintf(&g.b, "%s %s %s;\n", v, op, g.expr(1))
	case 3:
		if depth <= 0 {
			g.b.WriteString("acc += 1;\n")
			return
		}
		fmt.Fprintf(&g.b, "if %s {\n", g.cond())
		g.stmt(depth - 1)
		g.b.WriteString("} else {\n")
		g.stmt(depth - 1)
		g.b.WriteString("}\n")
	case 4:
		if depth <= 0 || g.loop >= 3 {
			fmt.Fprintf(&g.b, "acc ^= %s;\n", g.expr(1))
			return
		}
		g.loop++
		iv := fmt.Sprintf("it%d", g.loop)
		fmt.Fprintf(&g.b, "for (int %s = 0; %s < %d; %s++) {\n", iv, iv, 2+g.r.Intn(9), iv)
		g.stmt(depth - 1)
		g.b.WriteString("}\n")
		g.loop--
	case 5:
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.b, "%s = helper%d(%s, %s);\n", v, g.r.Intn(2), g.expr(1), g.expr(1))
	}
}

func (g *progGen) fstmt() {
	switch g.r.Intn(4) {
	case 0:
		fmt.Fprintf(&g.b, "fx = fx * 0.5 + (float)(%s);\n", g.expr(1))
	case 1:
		g.b.WriteString("fy = fhelper(fx, fy);\n")
	case 2:
		g.b.WriteString("if (fx > fy) fy = fy + 1.25; else fx = fx - 0.75;\n")
	case 3:
		g.b.WriteString("acc += (int)(fx - fy) & 63;\n")
	}
}

const genPrelude = `
int helper0(int x, int y) { return (x ^ y) + (x & 7); }
int helper1(int x, int y) {
    int t = 0;
    for (int i = 0; i < (y & 7); i++) t += x + i;
    return t;
}
float fhelper(float u, float v) { return u * 0.25 - v * 0.125 + 1.0; }
int readint(void) {
    int c = getchar();
    int neg = 0, n = 0;
    if (c == '-') { neg = 1; c = getchar(); }
    while (c >= '0' && c <= '9') { n = n * 10 + (c - '0'); c = getchar(); }
    if (neg) return -n;
    return n;
}
void printi(int n) {
    if (n < 0) { putchar('-'); n = -n; }
    if (n >= 10) printi(n / 10);
    putchar('0' + n % 10);
}
`

// program returns one generated program of stmts top-level statements.
// It reads three integers from stdin (see genInput) and prints its
// variables. A long program wraps its body in an outer loop of outer
// iterations and leaves out the floating-point statements, so that
// values which grow over many iterations never meet a float-to-int
// conversion out of range.
func (g *progGen) program(stmts, outer int) string {
	g.b.Reset()
	g.vars = []string{"a", "b", "c", "acc"}
	g.b.WriteString(genPrelude)
	g.b.WriteString(`int main(void) {
    int a = readint(), b = readint(), c = readint(), acc = 0;
    float fx = 1.5, fy = -2.25;
`)
	if outer > 0 {
		fmt.Fprintf(&g.b, "for (int outer = 0; outer < %d; outer++) {\nacc += outer & 3;\n", outer)
	}
	for i := 0; i < stmts; i++ {
		g.stmt(2)
		if outer == 0 && g.r.Intn(3) == 0 {
			g.fstmt()
		}
	}
	if outer > 0 {
		g.b.WriteString("}\n")
	}
	g.b.WriteString(`printi(a); putchar(' '); printi(b); putchar(' '); printi(c); putchar(' '); printi(acc); putchar('\n');
return (acc ^ a ^ b ^ c ^ ((int)fx & 7)) & 255;
}
`)
	return g.b.String()
}

// uniqueProgram is one serve-unique program whose size is the q-quantile
// of a log-uniform spread from 4 to 48 statements, which spans most of
// the suite's program sizes (about 150 to 700 linked instructions).
func (g *progGen) uniqueProgram(q float64) string {
	return g.program(int(4*math.Pow(12, q)), 0)
}

// longProgram is one held-out long-running program for serve-suite: 8
// to 24 statements inside an outer loop scaled so that one run on input
// takes about steps IR-interpreter steps. The body is generated once
// with a 100-iteration outer loop and interpreted, then generated again
// from the same random state with the loop scaled to the target, so that
// the held-out programs spread evenly over the run lengths asked for.
func (g *progGen) longProgram(steps int64, input string) (string, error) {
	seed, stmts := g.r.Int63(), 8+g.r.Intn(17)
	probe := newGen(seed).program(stmts, 100)
	iu, err := driver.Lower(probe, driver.DefaultOptions())
	if err != nil {
		return "", err
	}
	m, err := irexec.New(iu, input)
	if err != nil {
		return "", err
	}
	if _, err := m.Run(); err != nil {
		return "", err
	}
	outer := max(1, int(100*steps/max(m.Steps(), 1)))
	return newGen(seed).program(stmts, outer), nil
}

// genInput is the stdin a generated program reads: three integers.
func (g *progGen) genInput() string {
	return fmt.Sprintf("%d %d %d\n", g.r.Intn(2001)-1000, g.r.Intn(2001)-1000, g.r.Intn(2001)-1000)
}

// suiteInput returns a fresh stdin for a suite workload in that
// workload's own format: seeded text for the text utilities (keeping
// their command lines), seeded lines for sort, two seeded word lists for
// diff, seeded expressions for tinycc, a seeded C fragment for cb, and a
// seeded token for the programs that never read stdin (it changes the
// request's fingerprint, not the program's output).
func (g *progGen) suiteInput(w workloads.Workload) string {
	switch w.Name {
	case "compact":
		return g.text(40)
	case "grep":
		return "ing\n" + g.text(60)
	case "nroff":
		return g.text(50)
	case "od":
		return g.text(12)
	case "sed":
		return "the\nTHE\n" + g.text(50)
	case "tr":
		return "aeiou\nAEIOU\n" + g.text(40)
	case "wc":
		return g.text(80)
	case "sort":
		var b strings.Builder
		for i := 0; i < 120; i++ {
			for j := 3 + g.r.Intn(16); j > 0; j-- {
				b.WriteByte(byte('a' + g.r.Intn(26)))
			}
			b.WriteByte('\n')
		}
		return b.String()
	case "diff":
		return g.diffInput()
	case "tinycc":
		var b strings.Builder
		for i := 0; i < 10; i++ {
			b.WriteString(g.arith(3))
			b.WriteByte('\n')
		}
		return b.String()
	case "cb":
		var b strings.Builder
		for i := 55 + g.r.Intn(11); i > 0; i-- {
			b.WriteString(strings.ReplaceAll(cbFragment, "x", string(rune('a'+g.r.Intn(26)))))
		}
		return b.String()
	}
	return fmt.Sprintf("#%d\n", g.r.Int63())
}

var textWords = []string{
	"the", "register", "branch", "machine", "pipeline", "running",
	"compiler", "moving", "loop", "address", "instruction", "cache",
	"prefetching", "delay", "cycle", "target", "encoding", "jumping",
	"calling", "saving", "restoring", "counting", "estimating", "a",
	"of", "to", "and", "in", "is", "for",
}

func (g *progGen) text(lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		n := 4 + g.r.Intn(8)
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(textWords[g.r.Intn(len(textWords))])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

var diffWords = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
	"golf", "hotel", "india", "juliet", "kilo", "lima", "mike",
	"november", "oscar", "papa", "quebec", "romeo", "sierra", "tango"}

// diffInput is the diff workload's format: the first file's lines, a
// "%%" separator, and the second file's lines — here the first file with
// one seeded change, one seeded deletion and a seeded tail.
func (g *progGen) diffInput() string {
	a := append([]string(nil), diffWords...)
	g.r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	b := append([]string(nil), a...)
	b[g.r.Intn(len(b))] = strings.ToUpper(a[g.r.Intn(len(a))])
	del := g.r.Intn(len(b))
	b = append(b[:del], b[del+1:]...)
	b = append(b, "uniform", "victor")
	return strings.Join(a, "\n") + "\n%%\n" + strings.Join(b, "\n") + "\n"
}

// arith is a tinycc input line: +, - and * over small literals and
// parentheses (no division, so no line can divide by zero).
func (g *progGen) arith(depth int) string {
	if depth == 0 || g.r.Intn(3) == 0 {
		return fmt.Sprintf("%d", 1+g.r.Intn(99))
	}
	op := []string{"+", "-", "*"}[g.r.Intn(3)]
	s := g.arith(depth-1) + op + g.arith(depth-1)
	if g.r.Intn(2) == 0 {
		return "(" + s + ")"
	}
	return s
}

const cbFragment = `int f(int x){
if(x>0){
return x;
}else{
while(x<0){
x++;
}
}
return 0;
}
`
