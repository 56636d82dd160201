package exp

import (
	"context"
	"strings"
	"testing"

	"branchreg/internal/driver"
	"branchreg/internal/isa"
)

// The paper's running example (Figures 2-4): strlen compiled for both
// machines. The test checks the structural properties the figures
// illustrate rather than exact instruction sequences.
const strlenSrc = `
int strlen(char *s) {
    int n = 0;
    if (s)
        for (; *s; s++)
            n++;
    return n;
}
char text[20] = "branch registers";
int main(void) { return strlen(text); }
`

func compileFn(t *testing.T, kind isa.Kind) *isa.Function {
	t.Helper()
	u, err := driver.Assemble(strlenSrc, kind, driver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range u.Funcs {
		if f.Name == "strlen" {
			return f
		}
	}
	t.Fatal("strlen not found")
	return nil
}

// Figure 3 properties: the baseline machine uses compares, condition-code
// branches and delay slots (including a filled return slot).
func TestStrlenFigure3Baseline(t *testing.T) {
	f := compileFn(t, isa.Baseline)
	var hasCmp, hasCondBranch, hasJr, slotFilled bool
	for i, in := range f.Code {
		switch in.Op {
		case isa.OpCmp:
			hasCmp = true
		case isa.OpB:
			if in.Cond != isa.CondAlways {
				hasCondBranch = true
			}
		case isa.OpJr:
			hasJr = true
			// Figure 3 fills the return's delay slot with the result move.
			if i+1 < len(f.Code) && f.Code[i+1].Op != isa.OpNop {
				slotFilled = true
			}
		}
	}
	if !hasCmp || !hasCondBranch || !hasJr {
		t.Errorf("baseline strlen missing cmp/branch/return:\n%s", f.Listing())
	}
	if !slotFilled {
		t.Errorf("return delay slot not filled (Figure 3 fills it):\n%s", f.Listing())
	}
}

// Figure 4 properties: the branch-register machine hoists target
// calculations into the loop preheader, uses compare-with-assignment, and
// carries the loop's back transfer on a real instruction.
func TestStrlenFigure4BRM(t *testing.T) {
	f := compileFn(t, isa.BranchReg)
	lst := f.Listing()
	var calcs, cmpbrs, attachedTransfers, noopTransfers int
	for _, in := range f.Code {
		switch in.Op {
		case isa.OpBrCalc:
			calcs++
		case isa.OpCmpBr:
			cmpbrs++
		}
		if in.BR != isa.PCBr {
			if in.Op == isa.OpNop {
				noopTransfers++
			} else {
				attachedTransfers++
			}
		}
	}
	if calcs < 2 {
		t.Errorf("expected hoisted target calcs, found %d:\n%s", calcs, lst)
	}
	if cmpbrs < 2 {
		t.Errorf("expected compare-with-assignment instructions, found %d:\n%s", cmpbrs, lst)
	}
	if attachedTransfers == 0 {
		t.Errorf("no transfer rides a real instruction:\n%s", lst)
	}
	// The RA must be kept in a branch register (strlen makes no calls).
	if !strings.Contains(lst, "]=b[7]") {
		t.Errorf("return address not saved to a branch register:\n%s", lst)
	}
	// No baseline branch instructions exist on this machine.
	for _, in := range f.Code {
		if in.Op.IsBaselineBranch() {
			t.Errorf("baseline branch op in BRM code: %v", in.Op)
		}
	}
}

// The loop body must be shorter on the branch-register machine (the
// paper: five loop instructions versus six with a delayed branch).
func TestStrlenLoopShorter(t *testing.T) {
	o := driver.DefaultOptions()
	// Run on a longer string so loop iterations dominate.
	src := strings.Replace(strlenSrc, `"branch registers"`, `"branch registers!!"`, 1)
	src = strings.Replace(src, "char text[20]", "char text[20]", 1)
	base, err := driver.Exec(context.Background(), driver.Request{Source: src, Kind: isa.Baseline, Input: "", Options: o})
	if err != nil {
		t.Fatal(err)
	}
	brm, err := driver.Exec(context.Background(), driver.Request{Source: src, Kind: isa.BranchReg, Input: "", Options: o})
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != brm.Status {
		t.Fatalf("machines disagree: %d vs %d", base.Status, brm.Status)
	}
	if brm.Stats.Instructions >= base.Stats.Instructions {
		t.Errorf("BRM strlen not cheaper: %d vs %d instructions",
			brm.Stats.Instructions, base.Stats.Instructions)
	}
	// Note: noop counts can tie on this tiny program — the paper's own
	// Figure 4 keeps the conditional carrier noop inside the loop
	// (NL=NL;b[0]=b[7]); the suite-level measurement is where the noop
	// reduction shows.
}
