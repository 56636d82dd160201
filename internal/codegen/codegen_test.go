package codegen

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

func TestMachineConfigs(t *testing.T) {
	b := BaselineMachine()
	if b.NumIntRegs != 32 || b.NumFloatRegs != 32 {
		t.Error("baseline register counts wrong")
	}
	m := BRMMachine()
	if m.NumIntRegs != 16 || m.NumFloatRegs != 16 {
		t.Error("BRM register counts wrong (paper: 16 data, 16 FP)")
	}
	// Pools must not contain reserved registers.
	for _, r := range append(b.CallerInt, b.CalleeInt...) {
		if r == b.ZeroReg || r == b.SPReg || r == b.TmpReg || r == b.Tmp2Reg || r == b.RAReg {
			t.Errorf("baseline pool contains reserved r%d", r)
		}
		if r >= b.Arg0 && r < b.Arg0+b.NumArgs {
			t.Errorf("baseline pool contains argument register r%d", r)
		}
	}
	for _, r := range append(m.CallerInt, m.CalleeInt...) {
		if r == m.ZeroReg || r == m.SPReg || r == m.TmpReg || r == m.Tmp2Reg {
			t.Errorf("BRM pool contains reserved r%d", r)
		}
		if r >= m.NumIntRegs {
			t.Errorf("BRM pool register r%d out of range", r)
		}
	}
	// Callee-saved classification must match the pools.
	for _, r := range m.CalleeInt {
		if !m.CalleeSavedInt(r) {
			t.Errorf("r%d in BRM callee pool but not callee-saved", r)
		}
	}
	for _, r := range m.CallerInt {
		if m.CalleeSavedInt(r) {
			t.Errorf("r%d in BRM caller pool but callee-saved", r)
		}
	}
	if !b.FitsALUImm(16383) || b.FitsALUImm(16384) {
		t.Error("baseline ALU imm range wrong (15 bits)")
	}
	if !m.FitsALUImm(2047) || m.FitsALUImm(2048) {
		t.Error("BRM ALU imm range wrong (12 bits)")
	}
}

func TestAllocateSimple(t *testing.T) {
	iu := lowerMC(t, `int main(void) { int a = 1, b = 2; return a + b; }`)
	m := BaselineMachine()
	a := Allocate(&m, iu.Funcs[0])
	if a.IntSpills != 0 {
		t.Errorf("tiny function spilled %d", a.IntSpills)
	}
	if len(a.UsedInt) == 0 {
		t.Error("no registers used")
	}
}

func TestAllocateCallCrossing(t *testing.T) {
	iu := lowerMC(t, `
int id(int x) { return x; }
int main(void) {
    int a = id(1);
    int b = id(2);   // a is live across this call
    return a + b;
}`)
	m := BaselineMachine()
	f := iu.Funcs[1]
	if f.Name != "main" {
		t.Fatalf("unexpected order: %s", f.Name)
	}
	a := Allocate(&m, f)
	// Find the vreg holding id(1)'s result: it must be in a callee-saved
	// register or spilled, never caller-saved.
	for v := 0; v < f.NumInt; v++ {
		loc := a.Int[v]
		if loc.Spill {
			continue
		}
		crossing := vregCrossesCall(f, ir.Reg(v))
		if crossing && !m.CalleeSavedInt(loc.Reg) {
			t.Errorf("v%d live across a call allocated to caller-saved r%d", v, loc.Reg)
		}
	}
}

// vregCrossesCall reports whether v is live across any non-builtin call.
func vregCrossesCall(f *ir.Func, v ir.Reg) bool {
	pos := 0
	var defs, uses []int
	var calls []int
	for _, b := range f.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.Kind == ir.OpCall && !in.Builtin {
				calls = append(calls, pos)
			}
			var is, fs []ir.Reg
			is, _ = in.Uses(is, fs)
			for _, r := range is {
				if r == v {
					uses = append(uses, pos)
				}
			}
			if di, _ := in.Defs(); di == v {
				defs = append(defs, pos)
			}
			pos++
		}
	}
	if len(defs) == 0 || len(uses) == 0 {
		return false
	}
	lo, hi := defs[0], uses[len(uses)-1]
	for _, c := range calls {
		if lo < c && c < hi {
			return true
		}
	}
	return false
}

func TestAllocateSpillsUnderPressure(t *testing.T) {
	// More than 16 simultaneously-live values force spills on the BRM.
	var sb strings.Builder
	sb.WriteString("int f(void) {\n")
	for i := 0; i < 24; i++ {
		// Derive each value from input so constant folding cannot
		// eliminate the registers.
		sb.WriteString(strings.ReplaceAll("int vN = getchar() + N;\n", "N", itoa(i)))
	}
	sb.WriteString("int s = 0;\n")
	for i := 0; i < 24; i++ {
		sb.WriteString("s += v" + itoa(i) + ";\n")
	}
	for i := 0; i < 24; i++ {
		sb.WriteString("s += v" + itoa(i) + " * 2;\n")
	}
	sb.WriteString("return s; }\nint main(void) { return f(); }\n")
	iu := lowerMC(t, sb.String())
	m := BRMMachine()
	a := Allocate(&m, iu.Funcs[0])
	if a.IntSpills == 0 {
		t.Error("expected spills under register pressure on the 16-register BRM")
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestFrameLayout(t *testing.T) {
	iu := lowerMC(t, `
int g(int *p) { return *p; }
int main(void) {
    int arr[100];
    arr[0] = 1;
    return g(arr);
}`)
	m := BaselineMachine()
	var f *ir.Func
	for _, fn := range iu.Funcs {
		if fn.Name == "main" {
			f = fn
		}
	}
	g := NewGen(&m, f)
	g.ReserveSave("ra")
	g.Layout()
	fr := g.Frame
	if fr.Size%8 != 0 {
		t.Errorf("frame size %d not 8-aligned", fr.Size)
	}
	if _, ok := fr.SaveOff["ra"]; !ok {
		t.Error("ra slot missing")
	}
	if len(fr.LocalOff) != 1 {
		t.Fatalf("local slots = %d", len(fr.LocalOff))
	}
	if fr.LocalOff[0]+400 > fr.Size {
		t.Errorf("array slot overflows frame: off %d size %d", fr.LocalOff[0], fr.Size)
	}
	// The save area must stay within the small-immediate range even though
	// the local array is large (saves are laid out before locals).
	if fr.SaveOff["ra"] > 2047 {
		t.Errorf("ra save offset %d exceeds the small immediate range", fr.SaveOff["ra"])
	}
}

func TestGenBaselineWholeProgram(t *testing.T) {
	iu := lowerMC(t, `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(void) { return fib(8); }`)
	p, err := GenBaseline(iu)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Text) == 0 {
		t.Fatal("linked program has no text")
	}
	// Every emitted instruction must encode in 32 bits.
	for i := range p.Text {
		in := p.Text[i].Instr()
		if _, err := isa.Encode(in, isa.Baseline); err != nil {
			t.Fatalf("instruction %d (%s) does not encode: %v", i, in.RTL(isa.Baseline), err)
		}
	}
	// Delayed branches: every branch is followed by exactly one slot
	// instruction that is not itself a branch.
	for i, in := range p.Text {
		if in.Op.IsBaselineBranch() {
			if i+1 >= len(p.Text) {
				t.Fatal("branch at end of text")
			}
			if p.Text[i+1].Op.IsBaselineBranch() {
				t.Errorf("branch at %d followed by branch (no delay slot)", i)
			}
		}
	}
}

func TestDelaySlotFilling(t *testing.T) {
	iu := lowerMC(t, `
int main(void) {
    int s = 0;
    for (int i = 0; i < 10; i++) s += i;
    return s;
}`)
	p, err := GenBaseline(iu)
	if err != nil {
		t.Fatal(err)
	}
	filled, noops := 0, 0
	for i, in := range p.Text {
		if i > 0 && p.Text[i-1].Op.IsBaselineBranch() {
			if in.Op == isa.OpNop {
				noops++
			} else {
				filled++
			}
		}
	}
	if filled == 0 {
		t.Errorf("no delay slots filled (noops: %d)", noops)
	}
}

func TestSwitchPlanning(t *testing.T) {
	iu := lowerMC(t, `
int f(int x) {
    switch (x) {
    case 0: return 1;
    case 1: return 2;
    case 2: return 3;
    case 3: return 4;
    default: return 0;
    }
}
int g(int x) {
    switch (x) {
    case 1: return 1;
    case 1000: return 2;
    default: return 0;
    }
}
int main(void) { return f(2) + g(1); }`)
	m := BaselineMachine()
	for _, fn := range iu.Funcs {
		gen := NewGen(&m, fn)
		gen.Layout()
		for _, b := range fn.Blocks {
			tm := b.Term()
			if tm == nil || tm.Kind != ir.OpSwitch {
				continue
			}
			plan := gen.PlanSwitch(tm)
			switch fn.Name {
			case "f":
				if !plan.Dense {
					t.Error("dense switch not planned as a table")
				}
				if len(gen.Data) == 0 {
					t.Error("no jump table emitted")
				}
			case "g":
				if plan.Dense {
					t.Error("sparse switch planned as a table")
				}
			}
		}
	}
}

func TestMaterializeImm(t *testing.T) {
	iu := lowerMC(t, `int main(void) { return 0; }`)
	m := BRMMachine()
	g := NewGen(&m, iu.Funcs[0])
	g.Layout()
	// Small immediate: single instruction.
	g.Buf = nil
	g.MaterializeImm(5, 100)
	if len(g.Buf) != 1 {
		t.Errorf("small imm took %d instructions", len(g.Buf))
	}
	// Large immediate: sethi + add.
	g.Buf = nil
	g.MaterializeImm(5, 0x123456)
	if len(g.Buf) != 2 {
		t.Errorf("large imm took %d instructions", len(g.Buf))
	}
	for _, in := range g.Buf {
		if _, err := isa.Encode(in, isa.BranchReg); err != nil {
			t.Errorf("materialized instruction does not encode: %v", err)
		}
	}
}

func TestConvertDatum(t *testing.T) {
	d := ConvertDatum(ir.Datum{Label: "x", Kind: ir.DWords, Words: []int32{1, 2},
		Relocs: []ir.Reloc{{WordIndex: 1, Sym: "s"}}})
	if d.Kind != isa.DataWords || len(d.Relocs) != 1 {
		t.Errorf("words conversion wrong: %+v", d)
	}
	if ConvertDatum(ir.Datum{Kind: ir.DBytes, Bytes: []byte("ab")}).Kind != isa.DataBytes {
		t.Error("bytes conversion wrong")
	}
	if ConvertDatum(ir.Datum{Kind: ir.DFloats, Floats: []float64{1}}).Kind != isa.DataFloat {
		t.Error("floats conversion wrong")
	}
	if ConvertDatum(ir.Datum{Kind: ir.DZero, Size: 9}).Size != 9 {
		t.Error("zero conversion wrong")
	}
}
