package opt

import (
	"testing"

	"branchreg/internal/ir"
	"branchreg/internal/workloads"
)

// TestLivenessSolvesDataflow checks ir.ComputeLiveness on real programs:
// every function of every suite workload, straight from irgen and again
// after the default passes, for both register classes. Each block's sets
// must equal an independent recomputation and satisfy the dataflow
// equations In = Use ∪ (Out − Def) and Out = ∪ In(succ). The sets come
// from one arena per class, so the test also writes into every set, in
// place and by appending past its end, and checks that no other set
// changes.
func TestLivenessSolvesDataflow(t *testing.T) {
	for _, w := range workloads.All() {
		u := lower(t, w.FullSource())
		for _, f := range u.Funcs {
			checkLiveness(t, w.Name+"/"+f.Name+"/irgen", f)
		}
		if err := RunUnit(u, Default); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, f := range u.Funcs {
			checkLiveness(t, w.Name+"/"+f.Name+"/opt", f)
		}
	}
}

// liveClass selects one register class of an instruction's operands.
type liveClass struct {
	name string
	n    func(f *ir.Func) int
	uses func(in *ir.Ins) []ir.Reg
	def  func(in *ir.Ins) ir.Reg
}

var liveClasses = []liveClass{
	{"int", func(f *ir.Func) int { return f.NumInt },
		func(in *ir.Ins) []ir.Reg { is, _ := in.Uses(nil, nil); return is },
		func(in *ir.Ins) ir.Reg { d, _ := in.Defs(); return d }},
	{"float", func(f *ir.Func) int { return f.NumFloat },
		func(in *ir.Ins) []ir.Reg { _, fs := in.Uses(nil, nil); return fs },
		func(in *ir.Ins) ir.Reg { _, d := in.Defs(); return d }},
}

func checkLiveness(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	if err := f.BuildCFG(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	intLive, fltLive := f.ComputeLiveness()
	for ci, live := range []*ir.Liveness{intLive, fltLive} {
		c := liveClasses[ci]
		in, out := solveLiveness(f, c)
		for bi, b := range f.Blocks {
			use, def := blockUseDef(b, c)
			for r := 0; r < c.n(f); r++ {
				v := ir.Reg(r)
				if live.In[bi].Has(v) != in[bi][r] || live.Out[bi].Has(v) != out[bi][r] {
					t.Fatalf("%s: %s v%d in block %s: in %v out %v, recomputed in %v out %v", name, c.name,
						r, b.Label, live.In[bi].Has(v), live.Out[bi].Has(v), in[bi][r], out[bi][r])
				}
				if want := use[v] || (live.Out[bi].Has(v) && !def[v]); live.In[bi].Has(v) != want {
					t.Fatalf("%s: %s v%d in block %s: In != Use ∪ (Out − Def)", name, c.name, r, b.Label)
				}
				want := false
				for _, s := range b.Succs {
					want = want || live.In[s.Index].Has(v)
				}
				if live.Out[bi].Has(v) != want {
					t.Fatalf("%s: %s v%d in block %s: Out != ∪ In(succ)", name, c.name, r, b.Label)
				}
			}
		}
	}
	checkNoAliasing(t, name, append(append(append(intLive.In, intLive.Out...), fltLive.In...), fltLive.Out...))
}

// blockUseDef recomputes a block's upward-exposed uses and definitions.
func blockUseDef(b *ir.Block, c liveClass) (use, def map[ir.Reg]bool) {
	use, def = map[ir.Reg]bool{}, map[ir.Reg]bool{}
	for i := range b.Ins {
		for _, r := range c.uses(&b.Ins[i]) {
			if !def[r] {
				use[r] = true
			}
		}
		if d := c.def(&b.Ins[i]); d != ir.None {
			def[d] = true
		}
	}
	return use, def
}

// solveLiveness is the textbook round-robin solver over plain bool
// slices, independent of RegSet.
func solveLiveness(f *ir.Func, c liveClass) (in, out [][]bool) {
	n := c.n(f)
	in, out = make([][]bool, len(f.Blocks)), make([][]bool, len(f.Blocks))
	use, def := make([]map[ir.Reg]bool, len(f.Blocks)), make([]map[ir.Reg]bool, len(f.Blocks))
	for i, b := range f.Blocks {
		in[i], out[i] = make([]bool, n), make([]bool, n)
		use[i], def[i] = blockUseDef(b, c)
	}
	for changed := true; changed; {
		changed = false
		for i, b := range f.Blocks {
			for r := 0; r < n; r++ {
				o := false
				for _, s := range b.Succs {
					o = o || in[s.Index][r]
				}
				v := use[i][ir.Reg(r)] || (o && !def[i][ir.Reg(r)])
				if o != out[i][r] || v != in[i][r] {
					out[i][r], in[i][r] = o, v
					changed = true
				}
			}
		}
	}
	return in, out
}

// checkNoAliasing fills each set with ones, then appends a word to it,
// and after each write checks that every other set kept its contents.
func checkNoAliasing(t *testing.T, name string, sets []ir.RegSet) {
	t.Helper()
	snap := make([]ir.RegSet, len(sets))
	for i, s := range sets {
		snap[i] = append(ir.RegSet(nil), s...)
	}
	unchanged := func(skip int, what string) {
		for j, s := range sets {
			if j == skip {
				continue
			}
			for w := range s {
				if s[w] != snap[j][w] {
					t.Fatalf("%s: %s set %d changed set %d", name, what, skip, j)
				}
			}
		}
	}
	for i, s := range sets {
		for w := range s {
			s[w] = ^uint64(0)
		}
		unchanged(i, "filling")
		_ = append(s, ^uint64(0))
		unchanged(i, "appending to")
		copy(s, snap[i])
	}
}

// TestDominatesMatchesIDomWalk checks the numbered dominator tree against
// the definition it replaced: a dominates b when a lies on b's chain of
// immediate dominators. Every block pair of every suite function, as
// irgen leaves it and after opt, must agree.
func TestDominatesMatchesIDomWalk(t *testing.T) {
	walk := func(a, b *ir.Block) bool {
		for x := b; x != nil; x = x.IDom {
			if x == a {
				return true
			}
		}
		return false
	}
	check := func(name string, f *ir.Func) {
		if err := f.BuildCFG(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f.ComputeDominators()
		for _, a := range f.Blocks {
			for _, b := range f.Blocks {
				if got, want := ir.Dominates(a, b), walk(a, b); got != want {
					t.Fatalf("%s: Dominates(%s, %s) = %v, the idom walk says %v", name, a.Label, b.Label, got, want)
				}
			}
		}
	}
	for _, w := range workloads.All() {
		u := lower(t, w.FullSource())
		for _, f := range u.Funcs {
			check(w.Name+"/"+f.Name+"/irgen", f)
		}
		if err := RunUnit(u, Default); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, f := range u.Funcs {
			check(w.Name+"/"+f.Name+"/opt", f)
		}
	}
}
