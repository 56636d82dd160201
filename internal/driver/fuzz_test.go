package driver

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"branchreg/internal/irexec"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// TestSuiteEncodes verifies the ISA claim: every instruction of every
// compiled workload, on both machines, fits the 32-bit encodings of
// Figures 10 and 11 and decodes back to an executable form.
func TestSuiteEncodes(t *testing.T) {
	o := DefaultOptions()
	for _, w := range workloads.All() {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(context.Background(), w.FullSource(), kind, o)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, kind, err)
			}
			for i := range p.Text {
				in := p.Text[i].Instr()
				word, err := isa.Encode(in, kind)
				if err != nil {
					t.Fatalf("%s/%v: instruction %d (%s) does not encode: %v",
						w.Name, kind, i, in.RTL(kind), err)
				}
				if _, err := isa.Decode(word, kind); err != nil {
					t.Fatalf("%s/%v: %#x does not decode: %v", w.Name, kind, word, err)
				}
			}
		}
	}
}

// progGen generates random but well-formed MC programs for differential
// fuzzing: straight-line arithmetic, loops with bounded trip counts,
// conditionals, and a few helper functions.
type progGen struct {
	r    *rand.Rand
	b    strings.Builder
	vars []string
	loop int
}

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(200)-100)
		default:
			return g.vars[g.r.Intn(len(g.vars))]
		}
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
	case 0, 1: // assignment
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.b, "%s = %s;\n", v, g.expr(2))
	case 2: // compound assignment
		v := g.vars[g.r.Intn(len(g.vars))]
		op := []string{"+=", "-=", "^=", "|=", "&="}[g.r.Intn(5)]
		fmt.Fprintf(&g.b, "%s %s %s;\n", v, op, g.expr(1))
	case 3: // if/else
		if depth <= 0 {
			fmt.Fprintf(&g.b, "acc += 1;\n")
			return
		}
		fmt.Fprintf(&g.b, "if %s {\n", g.cond())
		g.stmt(depth - 1)
		g.b.WriteString("} else {\n")
		g.stmt(depth - 1)
		g.b.WriteString("}\n")
	case 4: // bounded loop
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
	case 5: // call a helper
		v := g.vars[g.r.Intn(len(g.vars))]
		fmt.Fprintf(&g.b, "%s = helper%d(%s, %s);\n", v, g.r.Intn(2), g.expr(1), g.expr(1))
	}
}

func (g *progGen) fstmt() {
	switch g.r.Intn(4) {
	case 0:
		fmt.Fprintf(&g.b, "fx = fx * 0.5 + (float)(%s);\n", g.expr(1))
	case 1:
		fmt.Fprintf(&g.b, "fy = fhelper(fx, fy);\n")
	case 2:
		fmt.Fprintf(&g.b, "if (fx > fy) fy = fy + 1.25; else fx = fx - 0.75;\n")
	case 3:
		fmt.Fprintf(&g.b, "acc += (int)(fx - fy) & 63;\n")
	}
}

func (g *progGen) generate() string {
	g.b.Reset()
	g.vars = []string{"a", "b", "c", "acc"}
	g.b.WriteString(`
int helper0(int x, int y) { return (x ^ y) + (x & 7); }
int helper1(int x, int y) {
    int t = 0;
    for (int i = 0; i < (y & 7); i++) t += x + i;
    return t;
}
float fhelper(float u, float v) { return u * 0.25 - v * 0.125 + 1.0; }
int main(void) {
    int a = 3, b = -7, c = 11, acc = 0;
    float fx = 1.5, fy = -2.25;
`)
	n := 4 + g.r.Intn(8)
	for i := 0; i < n; i++ {
		g.stmt(2)
		if g.r.Intn(3) == 0 {
			g.fstmt()
		}
	}
	g.b.WriteString("return (acc ^ a ^ b ^ c ^ ((int)fx & 7)) & 255;\n}\n")
	return g.b.String()
}

// TestFuzzDifferential generates random programs and checks that the IR
// interpreter, the baseline machine and the branch-register machine agree
// on every one — across the optimization ablations.
func TestFuzzDifferential(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 10
	}
	gen := &progGen{r: rand.New(rand.NewSource(20260706))}
	configs := []Options{DefaultOptions()}
	{
		o := DefaultOptions()
		o.BRM.Hoist = false
		configs = append(configs, o)
		o = DefaultOptions()
		o.BRM.ReplaceNoops = false
		o.BRM.Schedule = false
		configs = append(configs, o)
		o = DefaultOptions()
		o.BRM.BranchRegs = 4
		configs = append(configs, o)
		o = DefaultOptions()
		o.BRM.FastCompare = true
		configs = append(configs, o)
	}
	for i := 0; i < iterations; i++ {
		src := gen.generate()
		o := configs[i%len(configs)]
		iu, err := Lower(src, o)
		if err != nil {
			t.Fatalf("iteration %d: lower: %v\nprogram:\n%s", i, err, src)
		}
		refOut, refStatus, err := irexec.RunSource(iu, "")
		if err != nil {
			t.Fatalf("iteration %d: irexec: %v\nprogram:\n%s", i, err, src)
		}
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			res, err := Exec(context.Background(), Request{Source: src, Kind: kind, Input: "", Options: o})
			if err != nil {
				t.Fatalf("iteration %d on %v: %v\nprogram:\n%s", i, kind, err, src)
			}
			if res.Status != refStatus || res.Output != refOut {
				t.Fatalf("iteration %d: %v diverges: status %d vs reference %d\nprogram:\n%s",
					i, kind, res.Status, refStatus, src)
			}
		}
	}
}
