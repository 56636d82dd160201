package ir

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildDiamond constructs:
//
//	entry -> a -> (b | c) -> d -> ret
func buildDiamond(t *testing.T) *Func {
	t.Helper()
	f := NewFunc("diamond")
	v := f.NewIntReg()
	e := f.NewBlock("entry")
	e.Ins = append(e.Ins,
		Ins{Kind: OpConst, Dst: v, Imm: 1},
		Ins{Kind: OpBr, A: v, UseImm: true, Imm: 0, Cond: CondNE, Targets: []string{"b", "c"}})
	b := f.NewBlock("b")
	b.Ins = append(b.Ins, Ins{Kind: OpJump, Targets: []string{"d"}})
	c := f.NewBlock("c")
	c.Ins = append(c.Ins, Ins{Kind: OpJump, Targets: []string{"d"}})
	d := f.NewBlock("d")
	d.Ins = append(d.Ins, Ins{Kind: OpRet, A: v, FA: None})
	if err := f.BuildCFG(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBuildCFG(t *testing.T) {
	f := buildDiamond(t)
	e := f.BlockByLabel("entry")
	d := f.BlockByLabel("d")
	if len(e.Succs) != 2 || len(d.Preds) != 2 {
		t.Fatalf("edges wrong: entry succs %d, d preds %d", len(e.Succs), len(d.Preds))
	}
	if e.RPO != 0 {
		t.Errorf("entry RPO = %d", e.RPO)
	}
	if d.RPO != 3 {
		t.Errorf("d RPO = %d", d.RPO)
	}
}

func TestBuildCFGErrors(t *testing.T) {
	f := NewFunc("bad")
	b := f.NewBlock("entry")
	b.Ins = append(b.Ins, Ins{Kind: OpJump, Targets: []string{"nowhere"}})
	if err := f.BuildCFG(); err == nil {
		t.Error("unknown target must fail")
	}
	f2 := NewFunc("bad2")
	b2 := f2.NewBlock("entry")
	b2.Ins = append(b2.Ins, Ins{Kind: OpConst, Dst: 0, Imm: 1})
	if err := f2.BuildCFG(); err == nil {
		t.Error("missing terminator must fail")
	}
}

func TestDominators(t *testing.T) {
	f := buildDiamond(t)
	f.ComputeDominators()
	e := f.BlockByLabel("entry")
	b := f.BlockByLabel("b")
	c := f.BlockByLabel("c")
	d := f.BlockByLabel("d")
	if b.IDom != e || c.IDom != e || d.IDom != e {
		t.Errorf("idoms: b=%v c=%v d=%v", lbl(b.IDom), lbl(c.IDom), lbl(d.IDom))
	}
	if !Dominates(e, d) || Dominates(b, d) || !Dominates(d, d) {
		t.Error("Dominates relation wrong")
	}
}

func lbl(b *Block) string {
	if b == nil {
		return "<nil>"
	}
	return b.Label
}

// buildNestedLoops constructs a double loop:
//
//	entry -> outerhead <-> innerhead <-> innerbody ; outerhead -> exit
func buildNestedLoops(t *testing.T) *Func {
	t.Helper()
	f := NewFunc("nest")
	i := f.NewIntReg()
	e := f.NewBlock("entry")
	e.Ins = append(e.Ins,
		Ins{Kind: OpConst, Dst: i, Imm: 0},
		Ins{Kind: OpJump, Targets: []string{"oh"}})
	oh := f.NewBlock("oh")
	oh.Ins = append(oh.Ins,
		Ins{Kind: OpBr, A: i, UseImm: true, Imm: 10, Cond: CondLT, Targets: []string{"ih", "exit"}})
	ih := f.NewBlock("ih")
	ih.Ins = append(ih.Ins,
		Ins{Kind: OpBr, A: i, UseImm: true, Imm: 5, Cond: CondLT, Targets: []string{"ib", "olatch"}})
	ib := f.NewBlock("ib")
	ib.Ins = append(ib.Ins,
		Ins{Kind: OpAdd, Dst: i, A: i, UseImm: true, Imm: 1},
		Ins{Kind: OpJump, Targets: []string{"ih"}})
	ol := f.NewBlock("olatch")
	ol.Ins = append(ol.Ins,
		Ins{Kind: OpAdd, Dst: i, A: i, UseImm: true, Imm: 1},
		Ins{Kind: OpJump, Targets: []string{"oh"}})
	x := f.NewBlock("exit")
	x.Ins = append(x.Ins, Ins{Kind: OpRet, A: None, FA: None})
	if err := f.BuildCFG(); err != nil {
		t.Fatal(err)
	}
	f.ComputeDominators()
	f.FindLoops()
	return f
}

func TestFindLoops(t *testing.T) {
	f := buildNestedLoops(t)
	if len(f.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(f.Loops))
	}
	outer, inner := f.Loops[0], f.Loops[1]
	if len(outer.Blocks) < len(inner.Blocks) {
		outer, inner = inner, outer
	}
	if outer.Header.Label != "oh" || inner.Header.Label != "ih" {
		t.Errorf("headers: outer %s inner %s", outer.Header.Label, inner.Header.Label)
	}
	if inner.Parent != outer || outer.Parent != nil {
		t.Error("nesting wrong")
	}
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Errorf("depths: outer %d inner %d", outer.Depth, inner.Depth)
	}
	ib := f.BlockByLabel("ib")
	if ib.Depth != 2 || ib.InLoop != inner {
		t.Errorf("ib depth %d", ib.Depth)
	}
	ol := f.BlockByLabel("olatch")
	if ol.Depth != 1 || ol.InLoop != outer {
		t.Errorf("olatch depth %d", ol.Depth)
	}
	if ib.Freq != 100 || ol.Freq != 10 || f.BlockByLabel("entry").Freq != 1 {
		t.Errorf("freqs: ib %d ol %d", ib.Freq, ol.Freq)
	}
}

func TestLoopHasCall(t *testing.T) {
	f := buildNestedLoops(t)
	ib := f.BlockByLabel("ib")
	ib.Ins = append(ib.Ins[:1], Ins{Kind: OpCall, Sym: "g", Dst: None, FDst: None},
		Ins{Kind: OpJump, Targets: []string{"ih"}})
	if err := f.BuildCFG(); err != nil {
		t.Fatal(err)
	}
	f.ComputeDominators()
	f.FindLoops()
	for _, l := range f.Loops {
		if !l.HasCall {
			t.Errorf("loop at %s should have HasCall", l.Header.Label)
		}
	}
}

func TestEnsurePreheaders(t *testing.T) {
	f := buildNestedLoops(t)
	if err := f.EnsurePreheaders(); err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, l := range f.Loops {
		if l.Preheader == nil {
			t.Fatalf("loop at %s has no preheader", l.Header.Label)
		}
		if l.Blocks[l.Preheader] {
			t.Errorf("preheader of %s is inside the loop", l.Header.Label)
		}
		if len(l.Preheader.Succs) != 1 || l.Preheader.Succs[0] != l.Header {
			t.Errorf("preheader of %s does not fall into the header", l.Header.Label)
		}
	}
	// The outer loop's preheader must not be a block of the outer loop and
	// all original out-of-loop predecessors must now route through it.
	outer := f.Loops[0]
	if f.Loops[1].Depth > outer.Depth {
		outer = f.Loops[1]
	}
	hdr := outer.Header
	for _, p := range hdr.Preds {
		if !outer.Blocks[p] && p != outer.Preheader {
			t.Errorf("header pred %s bypasses preheader", p.Label)
		}
	}
}

func TestPreheaderIdempotent(t *testing.T) {
	f := buildNestedLoops(t)
	if err := f.EnsurePreheaders(); err != nil {
		t.Fatal(err)
	}
	n := len(f.Blocks)
	if err := f.EnsurePreheaders(); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != n {
		t.Errorf("second EnsurePreheaders added blocks: %d -> %d", n, len(f.Blocks))
	}
}

func TestLiveness(t *testing.T) {
	f := NewFunc("live")
	a := f.NewIntReg()
	b := f.NewIntReg()
	c := f.NewIntReg()
	e := f.NewBlock("entry")
	e.Ins = append(e.Ins,
		Ins{Kind: OpConst, Dst: a, Imm: 1},
		Ins{Kind: OpConst, Dst: b, Imm: 2},
		Ins{Kind: OpBr, A: a, UseImm: true, Imm: 0, Cond: CondNE, Targets: []string{"then", "join"}})
	th := f.NewBlock("then")
	th.Ins = append(th.Ins,
		Ins{Kind: OpAdd, Dst: c, A: a, B: b},
		Ins{Kind: OpJump, Targets: []string{"join"}})
	j := f.NewBlock("join")
	j.Ins = append(j.Ins, Ins{Kind: OpRet, A: b, FA: None})
	if err := f.BuildCFG(); err != nil {
		t.Fatal(err)
	}
	intL, _ := f.ComputeLiveness()
	// b is live out of entry (used in join and then); a live into then only.
	if !intL.Out[e.Index].Has(b) {
		t.Error("b should be live out of entry")
	}
	if !intL.In[th.Index].Has(a) || !intL.In[th.Index].Has(b) {
		t.Error("a and b should be live into then")
	}
	if intL.In[j.Index].Has(a) {
		t.Error("a should not be live into join")
	}
	if intL.In[e.Index].Has(a) || intL.In[e.Index].Has(b) {
		t.Error("nothing should be live into entry")
	}
	// c is dead everywhere.
	for i := range f.Blocks {
		if intL.Out[i].Has(c) {
			t.Error("c should never be live out")
		}
	}
}

func TestLivenessLoop(t *testing.T) {
	f := buildNestedLoops(t)
	intL, _ := f.ComputeLiveness()
	// i (vreg 0) is live around the whole loop nest.
	oh := f.BlockByLabel("oh")
	if !intL.In[oh.Index].Has(0) || !intL.Out[oh.Index].Has(0) {
		t.Error("loop counter should be live through the outer header")
	}
}

func TestRegSetProperties(t *testing.T) {
	add := func(elems []uint8) bool {
		s := NewRegSet(256)
		seen := map[Reg]bool{}
		for _, e := range elems {
			r := Reg(e)
			changed := s.Add(r)
			if changed == seen[r] {
				return false // Add must report "newly added"
			}
			seen[r] = true
			if !s.Has(r) {
				return false
			}
		}
		if s.Count() != len(seen) {
			return false
		}
		for r := range seen {
			s.Remove(r)
			if s.Has(r) {
				return false
			}
		}
		return s.Count() == 0
	}
	if err := quick.Check(add, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegSetUnion(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewRegSet(256), NewRegSet(256)
		for _, x := range xs {
			a.Add(Reg(x))
		}
		for _, y := range ys {
			b.Add(Reg(y))
		}
		u := append(RegSet(nil), a...)
		u.UnionWith(b)
		for _, x := range xs {
			if !u.Has(Reg(x)) {
				return false
			}
		}
		for _, y := range ys {
			if !u.Has(Reg(y)) {
				return false
			}
		}
		// Union is idempotent once complete.
		return !u.UnionWith(b) && !u.UnionWith(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVerifyCatchesBadIR(t *testing.T) {
	f := NewFunc("v")
	b := f.NewBlock("entry")
	b.Ins = append(b.Ins,
		Ins{Kind: OpJump, Targets: []string{"entry"}},
		Ins{Kind: OpConst, Dst: 0, Imm: 1})
	if err := f.Verify(); err == nil {
		t.Error("terminator in middle must fail verification")
	}
	f2 := NewFunc("v2")
	b2 := f2.NewBlock("entry")
	b2.Ins = append(b2.Ins, Ins{Kind: OpMov, Dst: 5, A: 3})
	// vregs out of range (NumInt == 0)
	if err := f2.Verify(); err == nil {
		t.Error("out-of-range vreg must fail verification")
	}
}

func TestUsesDefs(t *testing.T) {
	in := Ins{Kind: OpStore, A: 1, B: 2, Size: 4}
	is, fs := in.Uses(nil, nil)
	if len(is) != 2 || len(fs) != 0 {
		t.Errorf("store uses = %v %v", is, fs)
	}
	d, fd := in.Defs()
	if d != None || fd != None {
		t.Error("store defines nothing")
	}
	call := Ins{Kind: OpCall, Dst: 3, FDst: None, Args: []Arg{{R: 1}, {R: 2, Float: true}}}
	is, fs = call.Uses(nil, nil)
	if len(is) != 1 || len(fs) != 1 {
		t.Errorf("call uses = %v %v", is, fs)
	}
	d, _ = call.Defs()
	if d != 3 {
		t.Errorf("call def = %d", d)
	}
	alu := Ins{Kind: OpAdd, Dst: 0, A: 1, UseImm: true, Imm: 4}
	is, _ = alu.Uses(nil, nil)
	if len(is) != 1 {
		t.Errorf("imm ALU uses = %v", is)
	}
}

func TestCondHelpers(t *testing.T) {
	if CondLT.Negate() != CondGE || CondEQ.Swap() != CondEQ || CondLT.Swap() != CondGT {
		t.Error("cond helpers wrong")
	}
}

// Brute-force dominator computation for cross-checking: a dominates b iff
// removing a from the graph makes b unreachable from the entry.
func bruteDominates(f *Func, a, b *Block) bool {
	if a == b {
		return true
	}
	seen := map[*Block]bool{a: true} // block a is "removed"
	var dfs func(x *Block) bool
	dfs = func(x *Block) bool {
		if x == b {
			return true
		}
		if seen[x] {
			return false
		}
		seen[x] = true
		for _, s := range x.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return !dfs(f.Entry())
}

// randomCFG builds a random single-entry CFG with n blocks.
func randomCFG(t *testing.T, seed int64, n int) *Func {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	f := NewFunc("rand")
	v := f.NewIntReg()
	labels := make([]string, n)
	for i := 0; i < n; i++ {
		labels[i] = fmt.Sprintf("B%d", i)
	}
	for i := 0; i < n; i++ {
		b := f.NewBlock(labels[i])
		switch r.Intn(3) {
		case 0: // ret
			b.Ins = append(b.Ins, Ins{Kind: OpRet, A: None, FA: None})
		case 1: // jump
			b.Ins = append(b.Ins, Ins{Kind: OpJump, Targets: []string{labels[r.Intn(n)]}})
		default: // branch
			b.Ins = append(b.Ins, Ins{Kind: OpBr, A: v, UseImm: true, Imm: 0, Cond: CondNE,
				Targets: []string{labels[r.Intn(n)], labels[r.Intn(n)]}})
		}
	}
	if err := f.BuildCFG(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDominatorsAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		f := randomCFG(t, seed, 12)
		f.ComputeDominators()
		blocks := f.RPOBlocks()
		for _, a := range blocks {
			for _, b := range blocks {
				fast := Dominates(a, b)
				slow := bruteDominates(f, a, b)
				if fast != slow {
					t.Fatalf("seed %d: Dominates(%s,%s) = %v, brute force %v",
						seed, a.Label, b.Label, fast, slow)
				}
			}
		}
	}
}

func TestLoopsHaveDominatingHeaders(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		f := randomCFG(t, seed+100, 10)
		f.ComputeDominators()
		f.FindLoops()
		for _, l := range f.Loops {
			for b := range l.Blocks {
				if b.RPO >= 0 && !Dominates(l.Header, b) {
					t.Errorf("seed %d: loop header %s does not dominate member %s",
						seed, l.Header.Label, b.Label)
				}
			}
		}
	}
}
