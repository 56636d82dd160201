package emu

import (
	"strings"
	"testing"

	"branchreg/internal/isa"
)

// buildBase assembles a baseline program from one function body.
func buildBase(t *testing.T, emitTo func(f *isa.Function), data ...*isa.DataItem) *isa.Program {
	t.Helper()
	f := isa.NewFunction("main", isa.Baseline)
	emitTo(f)
	p, err := isa.Link(&isa.Unit{Kind: isa.Baseline, Funcs: []*isa.Function{f}, Data: data}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildBRM(t *testing.T, emitTo func(f *isa.Function), data ...*isa.DataItem) *isa.Program {
	t.Helper()
	f := isa.NewFunction("main", isa.BranchReg)
	emitTo(f)
	p, err := isa.Link(&isa.Unit{Kind: isa.BranchReg, Funcs: []*isa.Function{f}, Data: data}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runProg(t *testing.T, p *isa.Program, input string) *Machine {
	t.Helper()
	m, err := New(p, input)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBaselineALUAndExit(t *testing.T) {
	p := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 40})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 2})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m := runProg(t, p, "")
	if m.Status() != 42 {
		t.Errorf("status = %d", m.Status())
	}
	if m.Stats.Instructions != 3 {
		t.Errorf("instructions = %d", m.Stats.Instructions)
	}
}

func TestBaselineDelaySlotSemantics(t *testing.T) {
	// The instruction after a taken branch must execute.
	p := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondAlways, Target: "done"})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 7})  // slot
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 99}) // skipped
		f.Bind("done")
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m := runProg(t, p, "")
	if m.Status() != 7 {
		t.Errorf("delay slot did not execute: status = %d", m.Status())
	}
	if m.Stats.UncondJumps != 1 {
		t.Errorf("uncond jumps = %d", m.Stats.UncondJumps)
	}
}

func TestBaselineConditionalAndCC(t *testing.T) {
	p := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 0, UseImm: true, Imm: 5})
		f.Emit(isa.Instr{Op: isa.OpCmp, Rs1: 2, UseImm: true, Imm: 10})
		f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondLT, Target: "less"})
		f.Emit(isa.Instr{Op: isa.OpNop})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 1})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
		f.Bind("less")
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 2})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m := runProg(t, p, "")
	if m.Status() != 2 {
		t.Errorf("conditional branch wrong: status = %d", m.Status())
	}
	if m.Stats.CondBranches != 1 || m.Stats.CondTaken != 1 {
		t.Errorf("cond stats: %+v", m.Stats)
	}
	if m.Stats.Noops != 1 {
		t.Errorf("noops = %d", m.Stats.Noops)
	}
}

func TestBaselineCallReturn(t *testing.T) {
	f := isa.NewFunction("main", isa.Baseline)
	f.Emit(isa.Instr{Op: isa.OpCall, Target: "five"})
	f.Emit(isa.Instr{Op: isa.OpNop}) // slot
	f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	g := isa.NewFunction("five", isa.Baseline)
	g.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 5})
	g.Emit(isa.Instr{Op: isa.OpJr, Rs1: isa.RABase})
	g.Emit(isa.Instr{Op: isa.OpNop}) // slot
	p, err := isa.Link(&isa.Unit{Kind: isa.Baseline, Funcs: []*isa.Function{f, g}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := runProg(t, p, "")
	if m.Status() != 5 {
		t.Errorf("status = %d", m.Status())
	}
	if m.Stats.Calls != 1 || m.Stats.Returns != 1 {
		t.Errorf("call stats: calls %d returns %d", m.Stats.Calls, m.Stats.Returns)
	}
}

func TestMemoryOps(t *testing.T) {
	p := buildBase(t, func(f *isa.Function) {
		// store 123 to "cell", byte-store 'x' to "bytes", read both back
		f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 2, DataTarget: "cell"})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 2, DataTarget: "cell", Lo: true})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 3, Rs1: 0, UseImm: true, Imm: 123})
		f.Emit(isa.Instr{Op: isa.OpSw, Rd: 3, Rs1: 2, UseImm: true, Imm: 0})
		f.Emit(isa.Instr{Op: isa.OpLw, Rd: 4, Rs1: 2, UseImm: true, Imm: 0})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 5, Rs1: 0, UseImm: true, Imm: -56})
		f.Emit(isa.Instr{Op: isa.OpSb, Rd: 5, Rs1: 2, UseImm: true, Imm: 4})
		f.Emit(isa.Instr{Op: isa.OpLb, Rd: 6, Rs1: 2, UseImm: true, Imm: 4})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 4, Rs2: 6})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	}, &isa.DataItem{Label: "cell", Kind: isa.DataZero, Size: 8})
	m := runProg(t, p, "")
	if m.Status() != 123-56 {
		t.Errorf("status = %d, want %d", m.Status(), 123-56)
	}
	if m.Stats.Loads != 2 || m.Stats.Stores != 2 {
		t.Errorf("mem stats: %d loads %d stores", m.Stats.Loads, m.Stats.Stores)
	}
}

func TestFloatOps(t *testing.T) {
	p := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 2, DataTarget: "fval"})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 2, DataTarget: "fval", Lo: true})
		f.Emit(isa.Instr{Op: isa.OpLf, Rd: 2, Rs1: 2, UseImm: true, Imm: 0})
		f.Emit(isa.Instr{Op: isa.OpFadd, Rd: 3, Rs1: 2, Rs2: 2}) // 5.0
		f.Emit(isa.Instr{Op: isa.OpFmul, Rd: 3, Rs1: 3, Rs2: 3}) // 25.0
		f.Emit(isa.Instr{Op: isa.OpFneg, Rd: 4, Rs1: 3})         // -25.0
		f.Emit(isa.Instr{Op: isa.OpFsub, Rd: 3, Rs1: 3, Rs2: 4}) // 50.0
		f.Emit(isa.Instr{Op: isa.OpFdiv, Rd: 3, Rs1: 3, Rs2: 2}) // 20.0
		f.Emit(isa.Instr{Op: isa.OpCvtfi, Rd: 1, Rs1: 3})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	}, &isa.DataItem{Label: "fval", Kind: isa.DataFloat, Floats: []float64{2.5}})
	m := runProg(t, p, "")
	if m.Status() != 20 {
		t.Errorf("status = %d, want 20", m.Status())
	}
}

func TestTrapsIO(t *testing.T) {
	p := buildBase(t, func(f *isa.Function) {
		f.Bind("loop")
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapGetc})
		f.Emit(isa.Instr{Op: isa.OpCmp, Rs1: 1, UseImm: true, Imm: -1})
		f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondEQ, Target: "done"})
		f.Emit(isa.Instr{Op: isa.OpNop})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapPutc})
		f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondAlways, Target: "loop"})
		f.Emit(isa.Instr{Op: isa.OpNop})
		f.Bind("done")
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 0})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m := runProg(t, p, "echo!")
	if m.Output() != "echo!" {
		t.Errorf("output = %q", m.Output())
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	p := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 0, Rs1: 0, UseImm: true, Imm: 99})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 0})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m := runProg(t, p, "")
	if m.Status() != 0 {
		t.Errorf("r0 was written: status = %d", m.Status())
	}
}

func TestBRMTransferAndSideEffect(t *testing.T) {
	p := buildBRM(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 2, Rs1: -1, Target: "over"})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 1, BR: 2}) // jump
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 99})       // skipped
		f.Bind("over")
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m := runProg(t, p, "")
	if m.Status() != 1 {
		t.Errorf("BRM transfer skipped target or executed dead code: %d", m.Status())
	}
	if m.Stats.BrCalcs != 1 {
		t.Errorf("calcs = %d", m.Stats.BrCalcs)
	}
	if m.Stats.UncondJumps != 1 {
		t.Errorf("uncond = %d", m.Stats.UncondJumps)
	}
	// The side effect: b[7] received the address after the transfer.
	if got := int32(m.B[isa.RABr].addr); got != isa.IndexToAddr(2) {
		t.Errorf("b7 = %#x, want %#x", got, isa.IndexToAddr(2))
	}
}

func TestBRMConditionalBothPaths(t *testing.T) {
	build := func(v int32) *isa.Program {
		return buildBRM(t, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 0, UseImm: true, Imm: v})
			f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 3, Rs1: -1, Target: "neg"})
			f.Emit(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondLT, Rs1: 2, UseImm: true, Imm: 0, BSrc: 3})
			f.Emit(isa.Instr{Op: isa.OpNop, BR: isa.RABr})
			f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 10})
			f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
			f.Bind("neg")
			f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 20})
			f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
		})
	}
	m := runProg(t, build(-5), "")
	if m.Status() != 20 {
		t.Errorf("taken path: status = %d", m.Status())
	}
	if m.Stats.CondBranches != 1 || m.Stats.CondTaken != 1 {
		t.Errorf("taken stats: %+v", m.Stats)
	}
	m = runProg(t, build(5), "")
	if m.Status() != 10 {
		t.Errorf("untaken path: status = %d", m.Status())
	}
	if m.Stats.CondBranches != 1 || m.Stats.CondTaken != 0 {
		t.Errorf("untaken stats: cond %d taken %d", m.Stats.CondBranches, m.Stats.CondTaken)
	}
}

func TestBRMPrefetchDistance(t *testing.T) {
	// Distance 1: calc immediately before the transfer -> delayed.
	p := buildBRM(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 2, Rs1: -1, Target: "t"})
		f.Emit(isa.Instr{Op: isa.OpNop, BR: 2})
		f.Bind("t")
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m := runProg(t, p, "")
	if m.Stats.PrefetchMiss != 1 || m.Stats.PrefetchHit != 0 {
		t.Errorf("distance-1 stats: hit %d miss %d", m.Stats.PrefetchHit, m.Stats.PrefetchMiss)
	}
	if m.Stats.DistHist[1] != 1 {
		t.Errorf("hist: %v", m.Stats.DistHist)
	}
	// Distance 2: one instruction between -> in time.
	p2 := buildBRM(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 2, Rs1: -1, Target: "t"})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 3, Rs1: 0, UseImm: true, Imm: 1})
		f.Emit(isa.Instr{Op: isa.OpNop, BR: 2})
		f.Bind("t")
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m2 := runProg(t, p2, "")
	if m2.Stats.PrefetchHit != 1 || m2.Stats.PrefetchMiss != 0 {
		t.Errorf("distance-2 stats: hit %d miss %d", m2.Stats.PrefetchHit, m2.Stats.PrefetchMiss)
	}
}

func TestBRMConditionalDistanceFromCalc(t *testing.T) {
	// The compare moves the prefetched target between registers; the
	// distance is measured from the calc, not the compare.
	p := buildBRM(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 2, Rs1: -1, Target: "t"}) // calc
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 3, Rs1: 0, UseImm: true, Imm: 1})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 0, UseImm: true, Imm: 1})
		f.Emit(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondEQ, Rs1: 3, Rs2: 4, BSrc: 2})
		f.Emit(isa.Instr{Op: isa.OpNop, BR: isa.RABr})
		f.Bind("t")
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m := runProg(t, p, "")
	if m.Stats.PrefetchMiss != 0 || m.Stats.PrefetchHit != 1 {
		t.Errorf("cond distance stats: hit %d miss %d (hist %v)",
			m.Stats.PrefetchHit, m.Stats.PrefetchMiss, m.Stats.DistHist)
	}
	if m.Stats.DistHist[4] != 1 {
		t.Errorf("distance should be 4 (from the calc): %v", m.Stats.DistHist)
	}
}

func TestBRMBrLdSwitch(t *testing.T) {
	p := buildBRM(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 2, DataTarget: "table"})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 2, DataTarget: "table", Lo: true})
		f.Emit(isa.Instr{Op: isa.OpBrLd, Rd: 3, Rs1: 2, UseImm: true, Imm: 4}) // entry 1
		f.Emit(isa.Instr{Op: isa.OpNop, BR: 3})
		f.Bind("case0")
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 100})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
		f.Bind("case1")
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 200})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	}, &isa.DataItem{Label: "table", Kind: isa.DataAddrs, Addrs: []string{"main.case0", "main.case1"}})
	m := runProg(t, p, "")
	if m.Status() != 200 {
		t.Errorf("switch dispatch: status = %d", m.Status())
	}
	// BrLd is both a target calc and a data reference.
	if m.Stats.BrCalcs != 1 || m.Stats.Loads != 1 {
		t.Errorf("brld stats: calcs %d loads %d", m.Stats.BrCalcs, m.Stats.Loads)
	}
}

func TestBRMMovRoundTrip(t *testing.T) {
	p := buildBRM(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 2, Rs1: -1, Target: "t"})
		f.Emit(isa.Instr{Op: isa.OpMovRB, Rd: 5, BSrc: 2}) // r5 = addr of t
		f.Emit(isa.Instr{Op: isa.OpMovBR, Rd: 4, Rs1: 5})  // b4 = r5
		f.Emit(isa.Instr{Op: isa.OpMovBr, Rd: 3, BSrc: 4}) // b3 = b4
		f.Emit(isa.Instr{Op: isa.OpNop, BR: 3})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 9}) // skipped
		f.Bind("t")
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m := runProg(t, p, "")
	if m.Status() != 0 {
		t.Errorf("round-tripped branch register broken: status = %d", m.Status())
	}
	if m.Stats.BrMoves != 3 {
		t.Errorf("moves = %d", m.Stats.BrMoves)
	}
}

func TestRunErrors(t *testing.T) {
	// Division by zero reports a diagnostic with the function name.
	p := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpDiv, Rd: 1, Rs1: 0, UseImm: true, Imm: 0})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m, err := New(p, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
	// A program with no text traps at its first fetch.
	m0, err := New(&isa.Program{Kind: isa.Baseline}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m0.Run(); err == nil || !strings.Contains(err.Error(), "outside text") {
		t.Errorf("empty program: err = %v", err)
	}
	// Memory protection.
	p2 := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: 0, UseImm: true, Imm: -4})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m2, _ := New(p2, "")
	if _, err := m2.Run(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestInstructionLimit(t *testing.T) {
	p := buildBase(t, func(f *isa.Function) {
		f.Bind("spin")
		f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondAlways, Target: "spin"})
		f.Emit(isa.Instr{Op: isa.OpNop})
	})
	m, _ := New(p, "")
	m.MaxInstructions = 1000
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("err = %v", err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Instructions: 10, Loads: 1, CondBranches: 2}
	a.DistHist[3] = 5
	b := Stats{Instructions: 5, Loads: 2, CondBranches: 1}
	b.DistHist[3] = 1
	a.Add(&b)
	if a.Instructions != 15 || a.Loads != 3 || a.CondBranches != 3 || a.DistHist[3] != 6 {
		t.Errorf("Add wrong: %+v", a)
	}
	if a.DataRefs() != 3 {
		t.Errorf("DataRefs = %d", a.DataRefs())
	}
}

func TestHooks(t *testing.T) {
	var fetches, prefetches int
	p := buildBRM(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 2, Rs1: -1, Target: "t"})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 3, Rs1: 0, UseImm: true, Imm: 0})
		f.Emit(isa.Instr{Op: isa.OpNop, BR: 2})
		f.Bind("t")
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m, _ := New(p, "")
	m.Hooks.Fetch = func(addr int32) { fetches++ }
	m.Hooks.Prefetch = func(addr int32) { prefetches++ }
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if fetches != 4 {
		t.Errorf("fetch hook calls = %d, want 4", fetches)
	}
	if prefetches != 1 {
		t.Errorf("prefetch hook calls = %d, want 1", prefetches)
	}
}
