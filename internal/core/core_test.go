package core

import (
	"strings"
	"testing"

	"branchreg/internal/ir"
	"branchreg/internal/irgen"
	"branchreg/internal/isa"
	"branchreg/internal/mc"
	"branchreg/internal/opt"
)

func lowerMC(t *testing.T, src string) *ir.Unit {
	t.Helper()
	u, err := mc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	iu, err := irgen.Lower(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.RunUnit(iu, opt.Default); err != nil {
		t.Fatal(err)
	}
	return iu
}

func fn(t *testing.T, u *ir.Unit, name string) *ir.Func {
	t.Helper()
	for _, f := range u.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

func TestAllocatablePools(t *testing.T) {
	cases := []struct {
		bregs          int
		caller, callee int
	}{
		{8, 2, 3}, // b2,b3 caller; b4,b5,b6 callee
		{7, 2, 2},
		{6, 2, 1},
		{5, 2, 0},
		{4, 1, 0},
		{3, 0, 0},
	}
	for _, c := range cases {
		cfg := Config{BranchRegs: c.bregs}
		caller, callee := cfg.allocatable()
		if len(caller) != c.caller || len(callee) != c.callee {
			t.Errorf("bregs=%d: pools %d/%d, want %d/%d",
				c.bregs, len(caller), len(callee), c.caller, c.callee)
		}
		for _, b := range append(caller, callee...) {
			if b == pcBr || b == raBr || b == scratchBr {
				t.Errorf("bregs=%d: pool contains reserved b%d", c.bregs, b)
			}
		}
	}
	if !calleeSavedBr(4) || !calleeSavedBr(6) || calleeSavedBr(3) || calleeSavedBr(7) {
		t.Error("calleeSavedBr wrong")
	}
}

func TestCollectUses(t *testing.T) {
	iu := lowerMC(t, `
int h(int x) { return x; }
int main(void) {
    int s = 0;
    for (int i = 0; i < 10; i++) s += h(i);
    return s;
}`)
	f := fn(t, iu, "main")
	uses := collectUses(f)
	var callUses, labelUses int
	for _, u := range uses {
		if u.isCall {
			callUses++
			if u.target != "h" {
				t.Errorf("call target %q", u.target)
			}
		} else {
			labelUses++
		}
	}
	if callUses != 1 {
		t.Errorf("call uses = %d", callUses)
	}
	if labelUses == 0 {
		t.Error("no label uses collected")
	}
}

func TestEffCondTargets(t *testing.T) {
	ins := &ir.Ins{Kind: ir.OpBr, Targets: []string{"T", "F"}}
	taken, other := effCondTargets(ins, "F")
	if taken != "T" || other != "" {
		t.Errorf("fallthrough-false: %q %q", taken, other)
	}
	taken, other = effCondTargets(ins, "T")
	if taken != "F" || other != "" {
		t.Errorf("fallthrough-true: %q %q", taken, other)
	}
	taken, other = effCondTargets(ins, "X")
	if taken != "T" || other != "F" {
		t.Errorf("no fallthrough: %q %q", taken, other)
	}
}

func TestPlanHoistingBasics(t *testing.T) {
	iu := lowerMC(t, `
int main(void) {
    int s = 0;
    for (int i = 0; i < 100; i++)
        if (i & 1) s += i;
    return s;
}`)
	f := fn(t, iu, "main")
	caller, callee := DefaultConfig.allocatable()
	allocs := planHoisting(f, DefaultConfig, caller, callee)
	if len(allocs) == 0 {
		t.Fatal("nothing hoisted from a hot loop")
	}
	for _, h := range allocs {
		if h.place == nil || h.loop == nil {
			t.Fatalf("alloc incomplete: %+v", h)
		}
		if h.loop.Blocks[h.place] {
			t.Error("calc placed inside the loop")
		}
		// No call in the loop: caller-saved registers suffice.
		if h.loop.HasCall {
			t.Error("loop unexpectedly has a call")
		}
	}
	// Hoisting disabled: no allocations.
	cfg := DefaultConfig
	cfg.Hoist = false
	if got := planHoisting(f, cfg, caller, callee); got != nil {
		t.Error("Hoist=false must not allocate")
	}
}

func TestPlanHoistingCallConstraint(t *testing.T) {
	iu := lowerMC(t, `
int g(int x) { return x + 1; }
int main(void) {
    int s = 0;
    for (int i = 0; i < 100; i++)
        s += g(i);
    return s;
}`)
	f := fn(t, iu, "main")
	caller, callee := DefaultConfig.allocatable()
	allocs := planHoisting(f, DefaultConfig, caller, callee)
	for _, h := range allocs {
		if (h.loop.HasCall || blockHasCall(h.place)) && !calleeSavedBr(h.breg) {
			t.Errorf("target %s in a loop with calls allocated caller-saved b%d",
				h.target, h.breg)
		}
	}
	// The call target itself should be hoisted.
	foundCall := false
	for _, h := range allocs {
		if h.isCall && h.target == "g" {
			foundCall = true
		}
	}
	if !foundCall {
		t.Error("call target not hoisted out of the loop")
	}
}

func TestPlanHoistingInterference(t *testing.T) {
	// Two targets in the same loop must not share a branch register.
	iu := lowerMC(t, `
int main(void) {
    int s = 0;
    for (int i = 0; i < 100; i++) {
        if (i & 1) s += i;
        if (i & 2) s -= i;
        if (i & 4) s *= 2;
    }
    return s;
}`)
	f := fn(t, iu, "main")
	caller, callee := DefaultConfig.allocatable()
	allocs := planHoisting(f, DefaultConfig, caller, callee)
	seen := map[int][]*hoistAlloc{}
	for _, h := range allocs {
		for _, other := range seen[h.breg] {
			for b := range h.scopeBlocks() {
				if other.scopeBlocks()[b] {
					t.Errorf("b%d shared by overlapping scopes (%s, %s)",
						h.breg, h.target, other.target)
				}
			}
		}
		seen[h.breg] = append(seen[h.breg], h)
	}
}

func TestPlanHoistingNestedExtension(t *testing.T) {
	iu := lowerMC(t, `
int main(void) {
    int s = 0;
    for (int i = 0; i < 50; i++)
        for (int j = 0; j < 50; j++)
            s += i * j;
    return s;
}`)
	f := fn(t, iu, "main")
	caller, callee := DefaultConfig.allocatable()
	allocs := planHoisting(f, DefaultConfig, caller, callee)
	// The inner loop's back-edge target should end up hoisted out of the
	// outer loop (depth-0 placement) via the iterative extension.
	extended := false
	for _, h := range allocs {
		if h.place.Depth == 0 && h.loop.Depth >= 1 {
			extended = true
		}
	}
	if !extended {
		t.Error("no calculation was extended to the outermost preheader")
	}
}

func TestUsedCalleeBrs(t *testing.T) {
	allocs := []*hoistAlloc{{breg: 2}, {breg: 5}, {breg: 4}, {breg: 5}}
	got := usedCalleeBrs(allocs)
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("usedCalleeBrs = %v", got)
	}
}

func TestGenBRMEncodes(t *testing.T) {
	iu := lowerMC(t, `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
float area(float r) { return 3.14 * r * r; }
int main(void) {
    int s = fib(10);
    float a = area(2.0);
    switch (s % 5) {
    case 0: return 1;
    case 1: return 2;
    case 2: return 3;
    case 3: return (int)a;
    default: return 0;
    }
}`)
	p, err := GenBranchReg(iu, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Text {
		in := p.Text[i].Instr()
		if _, err := isa.Encode(in, isa.BranchReg); err != nil {
			t.Fatalf("instruction %d (%s) does not encode: %v", i, in.RTL(isa.BranchReg), err)
		}
	}
	// The BRM must contain no baseline branch instructions.
	for i, in := range p.Text {
		if in.Op.IsBaselineBranch() || in.Op == isa.OpCmp || in.Op == isa.OpFcmp {
			t.Errorf("instruction %d is a baseline op %v", i, in.Op)
		}
	}
}

func TestRAModes(t *testing.T) {
	iu := lowerMC(t, `
int leaf(int x) { return x + 1; }
int branchy(int x) {
    int s = 0;
    for (int i = 0; i < x; i++) s += i;
    return s;
}
int caller(int x) { return branchy(x) + leaf(x); }
int main(void) { return caller(5); }`)

	listing := func(name string) string {
		f := fn(t, iu, name)
		out, _, err := GenBRMFunc(f, DefaultConfig)
		if err != nil {
			t.Fatal(err)
		}
		return out.Listing()
	}
	// Leaf with no transfers: returns directly through b[7], no RA save.
	leaf := listing("leaf")
	if strings.Contains(leaf, "save return address") {
		t.Errorf("leaf saved RA:\n%s", leaf)
	}
	if !strings.Contains(leaf, "b[0]=b[7]") {
		t.Errorf("leaf does not return via b[7]:\n%s", leaf)
	}
	// Branchy but call-free: RA saved to a branch register, not memory.
	br := listing("branchy")
	if !strings.Contains(br, "]=b[7]") {
		t.Errorf("branchy does not save RA to a branch register:\n%s", br)
	}
	if strings.Contains(br, "spill return address") {
		t.Errorf("branchy spilled RA to memory:\n%s", br)
	}
	// Makes calls: RA spilled to the stack.
	ca := listing("caller")
	if !strings.Contains(ca, "spill return address") {
		t.Errorf("caller does not spill RA:\n%s", ca)
	}
	if !strings.Contains(ca, "restore return address") {
		t.Errorf("caller does not restore RA:\n%s", ca)
	}
}

func TestCarrierAttachment(t *testing.T) {
	iu := lowerMC(t, `
int main(void) {
    int s = 0;
    for (int i = 0; i < 10; i++) s += i;
    return s;
}`)
	f := fn(t, iu, "main")
	out, _, err := GenBRMFunc(f, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	// The loop back-edge transfer must ride on a real instruction, not a
	// noop (the paper's central code pattern, Figure 4).
	attached := 0
	for _, in := range out.Code {
		if in.BR != 0 && in.Op != isa.OpNop {
			attached++
		}
	}
	if attached == 0 {
		t.Errorf("no transfers attached to real instructions:\n%s", out.Listing())
	}
}

func TestNoopReplacement(t *testing.T) {
	src := `
int main(void) {
    int s = 0;
    for (int i = 0; i < 100; i++) {
        if (s > 50) s -= 9;
        s += i;
    }
    return s;
}`
	iu := lowerMC(t, src)
	withRepl, _, err := GenBRMFunc(fn(t, iu, "main"), DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	iu2 := lowerMC(t, src)
	cfg := DefaultConfig
	cfg.ReplaceNoops = false
	withoutRepl, _, err := GenBRMFunc(fn(t, iu2, "main"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := func(f *isa.Function) int {
		n := 0
		for _, in := range f.Code {
			if in.Op == isa.OpNop {
				n++
			}
		}
		return n
	}
	if count(withRepl) > count(withoutRepl) {
		t.Errorf("replacement increased noops: %d vs %d", count(withRepl), count(withoutRepl))
	}
}

func TestBranchRegsAblationStillCompiles(t *testing.T) {
	src := `
int g(int x) { return x * 2; }
int main(void) {
    int s = 0;
    for (int i = 0; i < 20; i++)
        for (int j = 0; j < 20; j++)
            s += g(i) + j;
    return s;
}`
	for _, n := range []int{3, 4, 5, 6, 7, 8} {
		iu := lowerMC(t, src)
		cfg := DefaultConfig
		cfg.BranchRegs = n
		p, err := GenBranchReg(iu, cfg)
		if err != nil {
			t.Fatalf("bregs=%d: %v", n, err)
		}
		for i, in := range p.Text {
			if int(in.BR) >= n && in.BR != raBr {
				t.Errorf("bregs=%d: instruction %d uses b%d", n, i, in.BR)
			}
		}
	}
}
