package emu

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"branchreg/internal/isa"
)

// The golden differential contract of the predecoded engines: for every
// program, input, and instruction budget, the fast loop, the block-fused
// loop and the instrumented loop must agree on all observable machine
// state — Stats, output bytes, exit status, trap values, registers,
// memory, and the final pc/pending — and attaching a profile must change
// none of it (a profiled run executes on the instrumented loop under
// every mode).

// engineTiers is the table every differential test sweeps: the
// instrumented Step loop is the reference; each other tier must reproduce
// it exactly.
var engineTiers = []struct {
	name     string
	mode     LoopMode
	profiled bool
}{
	{"step", LoopInstrumented, false},
	{"fast", LoopFast, false},
	{"profiled", LoopFast, true},
	{"fused", LoopFused, false},
}

// runEngine executes p under the given loop mode and returns the machine
// and run error.
func runEngine(t *testing.T, p *isa.Program, input string, mode LoopMode, profiled bool, budget int64) (*Machine, error) {
	t.Helper()
	m, err := New(p, input)
	if err != nil {
		t.Fatal(err)
	}
	m.Loop = mode
	if profiled {
		m.Prof = NewBlockProfile(len(p.Text))
	}
	if budget > 0 {
		m.MaxInstructions = budget
	}
	_, runErr := m.Run()
	return m, runErr
}

// diffEngines runs p under every engine tier and fails the test on any
// divergence from the instrumented reference.
func diffEngines(t *testing.T, p *isa.Program, input string, budget int64) {
	t.Helper()
	im, ierr := runEngine(t, p, input, LoopInstrumented, false, budget)
	for _, tier := range engineTiers[1:] {
		fm, ferr := runEngine(t, p, input, tier.mode, tier.profiled, budget)
		diffMachines(t, tier.name, fm, ferr, im, ierr)
	}
}

// diffMachines compares one engine tier's final machine state against the
// instrumented reference.
func diffMachines(t *testing.T, name string, fm *Machine, ferr error, im *Machine, ierr error) {
	t.Helper()
	if (ferr == nil) != (ierr == nil) {
		t.Fatalf("error divergence: %s=%v instrumented=%v", name, ferr, ierr)
	}
	if ferr != nil {
		var ft, it *Trap
		fok, iok := errors.As(ferr, &ft), errors.As(ierr, &it)
		if fok != iok {
			t.Fatalf("trap-ness divergence: %s=%v instrumented=%v", name, ferr, ierr)
		}
		if fok {
			if !reflect.DeepEqual(*ft, *it) {
				t.Errorf("trap divergence:\n %s: %+v\n inst: %+v", name, *ft, *it)
			}
		} else if ferr.Error() != ierr.Error() {
			t.Errorf("error divergence: %s=%v instrumented=%v", name, ferr, ierr)
		}
	}
	if !reflect.DeepEqual(fm.Stats, im.Stats) {
		t.Errorf("stats divergence:\n %s: %+v\n inst: %+v", name, fm.Stats, im.Stats)
	}
	if fm.Output() != im.Output() {
		t.Errorf("output divergence: %s=%q inst=%q", name, fm.Output(), im.Output())
	}
	if fm.Status() != im.Status() {
		t.Errorf("status divergence: %s=%d inst=%d", name, fm.Status(), im.Status())
	}
	if fm.halted != im.halted {
		t.Errorf("halted divergence: %s=%v inst=%v", name, fm.halted, im.halted)
	}
	if fm.pc != im.pc {
		t.Errorf("pc divergence: %s=%d inst=%d", name, fm.pc, im.pc)
	}
	if fm.pending != im.pending {
		t.Errorf("pending divergence: %s=%d inst=%d", name, fm.pending, im.pending)
	}
	if fm.CC != im.CC {
		t.Errorf("cc divergence: %s=%d inst=%d", name, fm.CC, im.CC)
	}
	if fm.R != im.R {
		t.Errorf("register divergence:\n %s: %v\n inst: %v", name, fm.R, im.R)
	}
	for i := range fm.F {
		if math.Float64bits(fm.F[i]) != math.Float64bits(im.F[i]) {
			t.Errorf("f%d divergence: %s=%v inst=%v", i, name, fm.F[i], im.F[i])
		}
	}
	if fm.B != im.B {
		t.Errorf("branch-register divergence:\n %s: %v\n inst: %v", name, fm.B, im.B)
	}
	if !bytes.Equal(fm.Mem, im.Mem) {
		t.Errorf("memory divergence (%s)", name)
	}
}

func TestEnginesDifferentialBaseline(t *testing.T) {
	// One program exercising every baseline op form: ALU imm/reg, shifts,
	// set, sethi/lo addressing, word/byte/float memory, float arithmetic,
	// fcmp, conditional and unconditional branches with live delay slots,
	// call/jr, jalr, and all three I/O traps.
	f := isa.NewFunction("main", isa.Baseline)
	f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 2, DataTarget: "cell"})
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 2, DataTarget: "cell", Lo: true})
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 3, Rs1: 0, UseImm: true, Imm: 10}) // n
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 0, UseImm: true, Imm: 0})  // acc
	f.Bind("loop")
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 4, Rs2: 3})
	f.Emit(isa.Instr{Op: isa.OpSub, Rd: 3, Rs1: 3, UseImm: true, Imm: 1})
	f.Emit(isa.Instr{Op: isa.OpCmp, Rs1: 3, UseImm: true, Imm: 0})
	f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondGT, Target: "loop"})
	f.Emit(isa.Instr{Op: isa.OpXor, Rd: 5, Rs1: 5, Rs2: 4}) // live slot
	// acc = 55; mix the full ALU set.
	f.Emit(isa.Instr{Op: isa.OpMul, Rd: 6, Rs1: 4, UseImm: true, Imm: 3})  // 165
	f.Emit(isa.Instr{Op: isa.OpDiv, Rd: 6, Rs1: 6, UseImm: true, Imm: 4})  // 41
	f.Emit(isa.Instr{Op: isa.OpRem, Rd: 7, Rs1: 6, Rs2: 4})                // 41
	f.Emit(isa.Instr{Op: isa.OpAnd, Rd: 7, Rs1: 7, UseImm: true, Imm: 60}) // 40
	f.Emit(isa.Instr{Op: isa.OpOr, Rd: 7, Rs1: 7, UseImm: true, Imm: 3})   // 43
	f.Emit(isa.Instr{Op: isa.OpSll, Rd: 8, Rs1: 7, UseImm: true, Imm: 4})
	f.Emit(isa.Instr{Op: isa.OpSrl, Rd: 8, Rs1: 8, Rs2: 6})
	f.Emit(isa.Instr{Op: isa.OpSra, Rd: 8, Rs1: 8, UseImm: true, Imm: 1})
	f.Emit(isa.Instr{Op: isa.OpSet, Rd: 9, Cond: isa.CondGE, Rs1: 8, Rs2: 7})
	// Memory round trips.
	f.Emit(isa.Instr{Op: isa.OpSw, Rd: 4, Rs1: 2, UseImm: true, Imm: 0})
	f.Emit(isa.Instr{Op: isa.OpLw, Rd: 10, Rs1: 2, UseImm: true, Imm: 0})
	f.Emit(isa.Instr{Op: isa.OpSb, Rd: 7, Rs1: 2, UseImm: true, Imm: 5})
	f.Emit(isa.Instr{Op: isa.OpLb, Rd: 11, Rs1: 2, Rs2: 0})
	// Floats.
	f.Emit(isa.Instr{Op: isa.OpCvtif, Rd: 1, Rs1: 4})
	f.Emit(isa.Instr{Op: isa.OpFadd, Rd: 2, Rs1: 1, Rs2: 1})
	f.Emit(isa.Instr{Op: isa.OpFmul, Rd: 2, Rs1: 2, Rs2: 1})
	f.Emit(isa.Instr{Op: isa.OpFdiv, Rd: 2, Rs1: 2, UseImm: false, Rs2: 1})
	f.Emit(isa.Instr{Op: isa.OpFneg, Rd: 3, Rs1: 2})
	f.Emit(isa.Instr{Op: isa.OpFsub, Rd: 2, Rs1: 2, Rs2: 3})
	f.Emit(isa.Instr{Op: isa.OpFmov, Rd: 1, Rs1: 2})
	f.Emit(isa.Instr{Op: isa.OpFcmp, Rs1: 2, Rs2: 3})
	f.Emit(isa.Instr{Op: isa.OpFSet, Rd: 13, Cond: isa.CondGT, Rs1: 2, Rs2: 3})
	f.Emit(isa.Instr{Op: isa.OpSf, Rd: 2, Rs1: 2, UseImm: true, Imm: 8})
	f.Emit(isa.Instr{Op: isa.OpLf, Rd: 4, Rs1: 2, UseImm: true, Imm: 8})
	f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapPutf})
	// I/O echo loop.
	f.Bind("echo")
	f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapGetc})
	f.Emit(isa.Instr{Op: isa.OpCmp, Rs1: 1, UseImm: true, Imm: -1})
	f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondEQ, Target: "calls"})
	f.Emit(isa.Instr{Op: isa.OpNop})
	f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapPutc})
	f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondAlways, Target: "echo"})
	f.Emit(isa.Instr{Op: isa.OpNop})
	f.Bind("calls")
	f.Emit(isa.Instr{Op: isa.OpCall, Target: "five"})
	f.Emit(isa.Instr{Op: isa.OpNop})
	// jalr through a function pointer loaded from data.
	f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 20, DataTarget: "fnptr"})
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 20, Rs1: 20, DataTarget: "fnptr", Lo: true})
	f.Emit(isa.Instr{Op: isa.OpLw, Rd: 20, Rs1: 20, UseImm: true, Imm: 0})
	f.Emit(isa.Instr{Op: isa.OpJalr, Rs1: 20})
	f.Emit(isa.Instr{Op: isa.OpNop})
	f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})

	g := isa.NewFunction("five", isa.Baseline)
	g.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 5})
	g.Emit(isa.Instr{Op: isa.OpJr, Rs1: isa.RABase})
	g.Emit(isa.Instr{Op: isa.OpNop})

	p, err := isa.Link(&isa.Unit{Kind: isa.Baseline, Funcs: []*isa.Function{f, g},
		Data: []*isa.DataItem{
			{Label: "cell", Kind: isa.DataZero, Size: 16},
			{Label: "fnptr", Kind: isa.DataAddrs, Addrs: []string{"five"}},
		}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	diffEngines(t, p, "hi!", 0)
}

func TestEnginesDifferentialBRM(t *testing.T) {
	// BRM coverage: brcalc in PC-relative and register form, brld through a
	// data table, cmpbr (imm and reg) both taken and untaken, fcmpbr,
	// movbr/movrb/movbr2, calls to a function entry, and returns via b[7].
	f := isa.NewFunction("main", isa.BranchReg)
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 3, Rs1: 0, UseImm: true, Imm: 5}) // n
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 0, UseImm: true, Imm: 0}) // acc
	f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "loop"})
	f.Bind("loop")
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 4, Rs2: 3})
	f.Emit(isa.Instr{Op: isa.OpSub, Rd: 3, Rs1: 3, UseImm: true, Imm: 1})
	f.Emit(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondGT, Rs1: 3, UseImm: true, Imm: 0, BSrc: 1})
	f.Emit(isa.Instr{Op: isa.OpNop, BR: isa.RABr})
	// Register-form brcalc: address of "join" built in r20.
	f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 20, Target: "join"})
	f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 2, Rs1: 20, Target: "join"})
	f.Emit(isa.Instr{Op: isa.OpNop, BR: 2})
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 0, UseImm: true, Imm: -999}) // skipped
	f.Bind("join")
	// brld: indirect jump through a data table of code addresses.
	f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 21, DataTarget: "table"})
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 21, Rs1: 21, DataTarget: "table", Lo: true})
	f.Emit(isa.Instr{Op: isa.OpBrLd, Rd: 3, Rs1: 21, Imm: 0})
	f.Emit(isa.Instr{Op: isa.OpNop, BR: 3})
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 0, UseImm: true, Imm: -998}) // skipped
	f.Bind("dispatched")
	// Untaken compare (reg form), then fcmpbr.
	f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 5, Rs1: -1, Target: "dead"})
	f.Emit(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondLT, Rs1: 4, Rs2: 0, BSrc: 5})
	f.Emit(isa.Instr{Op: isa.OpNop, BR: isa.RABr})
	f.Emit(isa.Instr{Op: isa.OpCvtif, Rd: 1, Rs1: 4})
	f.Emit(isa.Instr{Op: isa.OpCvtif, Rd: 2, Rs1: 3})
	f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 6, Rs1: -1, Target: "fdone"})
	f.Emit(isa.Instr{Op: isa.OpFCmpBr, Cond: isa.CondGT, Rs1: 1, Rs2: 2, BSrc: 6})
	f.Emit(isa.Instr{Op: isa.OpNop, BR: isa.RABr})
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 4, UseImm: true, Imm: 1000}) // skipped (15 > 0)
	f.Bind("fdone")
	// Call a function: movrb/movbr2 spill and restore the return address.
	f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "twice"})
	f.Emit(isa.Instr{Op: isa.OpNop, BR: 1}) // call
	f.Emit(isa.Instr{Op: isa.OpMovBr, Rd: 2, BSrc: isa.RABr})
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 4, UseImm: true, Imm: 0})
	f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	f.Bind("dead")
	f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})

	g := isa.NewFunction("twice", isa.BranchReg)
	g.Emit(isa.Instr{Op: isa.OpMovRB, Rd: 22, BSrc: isa.RABr}) // spill RA
	g.Emit(isa.Instr{Op: isa.OpAdd, Rd: 4, Rs1: 4, Rs2: 4})
	g.Emit(isa.Instr{Op: isa.OpMovBR, Rd: 6, Rs1: 22}) // restore RA into b6
	g.Emit(isa.Instr{Op: isa.OpNop, BR: 6})            // return

	p, err := isa.Link(&isa.Unit{Kind: isa.BranchReg, Funcs: []*isa.Function{f, g},
		Data: []*isa.DataItem{{Label: "table", Kind: isa.DataAddrs, Addrs: []string{"main.dispatched"}}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	diffEngines(t, p, "", 0)
}

func TestEnginesDifferentialTraps(t *testing.T) {
	// Every trap kind must carry identical diagnostics from every engine,
	// in a block body and at every terminator site.
	base := func(emit func(f *isa.Function)) *isa.Program {
		f := isa.NewFunction("main", isa.Baseline)
		emit(f)
		p, err := isa.Link(&isa.Unit{Kind: isa.Baseline, Funcs: []*isa.Function{f}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	brm := func(emit func(f *isa.Function)) *isa.Program {
		f := isa.NewFunction("main", isa.BranchReg)
		emit(f)
		p, err := isa.Link(&isa.Unit{Kind: isa.BranchReg, Funcs: []*isa.Function{f}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	oob := isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: 0, UseImm: true, Imm: -4}
	oobVia := func(br int) isa.Instr {
		in := oob
		in.BR = br
		return in
	}
	exit := isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit}
	// term builds a program whose entry block must decode to terminator
	// kind want, so the table keeps reaching every terminator site if the
	// decoder changes. The transfer targets label t or function g.
	term := func(kind isa.Kind, want termKind, emit func(f *isa.Function), data ...*isa.DataItem) *isa.Program {
		f := isa.NewFunction("main", kind)
		emit(f)
		f.Bind("t")
		f.Emit(exit)
		g := isa.NewFunction("g", kind)
		g.Emit(exit)
		p, err := isa.Link(&isa.Unit{Kind: kind, Funcs: []*isa.Function{f, g}, Data: data}, 0)
		if err != nil {
			t.Fatal(err)
		}
		fp := buildFprog(p, predecode(p), true)
		b := &fp.blocks[fp.pc2block[p.EntryPC]]
		if b.term != want {
			t.Fatalf("entry block decodes to terminator kind %d, want %d", b.term, want)
		}
		if want == ftBrmCmpBr && b.lite {
			t.Fatal("cmpbr block is lite: the intermediate b[7] would not be exposed")
		}
		return p
	}
	fnptr := &isa.DataItem{Label: "fnptr", Kind: isa.DataAddrs, Addrs: []string{"g"}}
	loadFnptr := func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 20, DataTarget: "fnptr"})
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 20, Rs1: 20, DataTarget: "fnptr", Lo: true})
		f.Emit(isa.Instr{Op: isa.OpLw, Rd: 20, Rs1: 20, UseImm: true, Imm: 0})
	}
	// A jr or jalr to TextBase-8 arms the target index -2, which must
	// trap after the delay slot like any other index outside the text.
	belowText := func(op isa.Op) func(f *isa.Function) {
		return func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 20, Rs1: 0, UseImm: true, Imm: isa.TextBase - 8})
			f.Emit(isa.Instr{Op: op, Rs1: 20})
			f.Emit(isa.Instr{Op: isa.OpNop}) // slot
		}
	}
	cases := []struct {
		name string
		p    *isa.Program
	}{
		{"base/div-zero", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpDiv, Rd: 1, Rs1: 1, Rs2: 0})
		})},
		{"base/rem-zero", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpRem, Rd: 1, Rs1: 1, UseImm: true, Imm: 0})
		})},
		{"base/load-oob", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: 0, UseImm: true, Imm: -4})
		})},
		{"base/load-misaligned", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: 0, UseImm: true, Imm: 2})
		})},
		{"base/byte-load-oob", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpLb, Rd: 1, Rs1: 0, UseImm: true, Imm: -1})
		})},
		{"base/store-oob", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpSw, Rd: 1, Rs1: 0, UseImm: true, Imm: -4})
		})},
		{"base/store-misaligned", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpSw, Rd: 1, Rs1: 0, UseImm: true, Imm: 6})
		})},
		{"base/byte-store-oob", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpSb, Rd: 1, Rs1: 0, UseImm: true, Imm: -1})
		})},
		{"base/float-load-oob", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpLf, Rd: 1, Rs1: 0, UseImm: true, Imm: -8})
		})},
		{"base/float-store-oob", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpSf, Rd: 1, Rs1: 0, UseImm: true, Imm: -8})
		})},
		{"base/unknown-trap", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: 99})
		})},
		{"base/illegal-brm-op", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpMovBr, Rd: 1, BSrc: 2})
		})},
		{"base/jump-out-of-text", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 2, UseImm: true, Imm: 16}) // 0x10000
			f.Emit(isa.Instr{Op: isa.OpJr, Rs1: 2})
			f.Emit(isa.Instr{Op: isa.OpNop}) // slot
		})},
		{"base/fall-off-end", base(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpNop})
		})},
		{"brm/div-zero", brm(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpDiv, Rd: 1, Rs1: 1, Rs2: 0})
		})},
		{"brm/load-oob", brm(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: 0, UseImm: true, Imm: -4})
		})},
		{"brm/brld-misaligned", brm(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpBrLd, Rd: 1, Rs1: 0, Imm: 2})
		})},
		{"brm/uninit-breg", brm(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpNop, BR: 3})
		})},
		{"brm/illegal-baseline-op", brm(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpCmp, Rs1: 1, UseImm: true, Imm: 0})
		})},
		{"brm/jump-out-of-text", brm(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpSethi, Rd: 2, UseImm: true, Imm: 16})
			f.Emit(isa.Instr{Op: isa.OpMovBR, Rd: 3, Rs1: 2})
			f.Emit(isa.Instr{Op: isa.OpNop, BR: 3})
		})},
		{"brm/fall-off-end", brm(func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpNop})
		})},
		// A trap in the op a block's terminator executes: the baseline's
		// delay slot, with the transfer armed so m.pending is exposed, and
		// the BRM's transfer-annotated op under every terminator kind.
		{"base/jump-slot", term(isa.Baseline, ftJump, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondAlways, Target: "t"})
			f.Emit(oob)
		})},
		{"base/cond-taken-slot", term(isa.Baseline, ftBCond, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondEQ, Target: "t"}) // CC starts at 0
			f.Emit(oob)
		})},
		{"base/cond-untaken-slot", term(isa.Baseline, ftBCond, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondNE, Target: "t"})
			f.Emit(oob)
		})},
		{"base/cmp-cond-slot", term(isa.Baseline, ftCmpBCond, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpCmp, Rs1: 0, UseImm: true, Imm: 1})
			f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondLT, Target: "t"})
			f.Emit(oob)
		})},
		{"base/call-slot", term(isa.Baseline, ftCall, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpCall, Target: "g"})
			f.Emit(oob)
		})},
		{"base/jalr-slot", term(isa.Baseline, ftJalr, func(f *isa.Function) {
			loadFnptr(f)
			f.Emit(isa.Instr{Op: isa.OpJalr, Rs1: 20})
			f.Emit(oob)
		}, fnptr)},
		{"base/jr-slot", term(isa.Baseline, ftJr, func(f *isa.Function) {
			loadFnptr(f)
			f.Emit(isa.Instr{Op: isa.OpJr, Rs1: 20})
			f.Emit(oob)
		}, fnptr)},
		{"base/jr-below-text", term(isa.Baseline, ftJr, belowText(isa.OpJr))},
		{"base/jalr-below-text", term(isa.Baseline, ftJalr, belowText(isa.OpJalr))},
		{"brm/transfer-op", term(isa.BranchReg, ftBrm, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpMovBR, Rd: 3, Rs1: 0})
			f.Emit(oobVia(3))
		})},
		{"brm/sjmp-op", term(isa.BranchReg, ftBrmSJmp, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "t"})
			f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 0, UseImm: true, Imm: 1})
			f.Emit(oobVia(1))
		})},
		{"brm/scond-op", term(isa.BranchReg, ftBrmSCond, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "t"})
			f.Emit(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondEQ, Rs1: 0, UseImm: true, Imm: 0, BSrc: 1})
			f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 0, UseImm: true, Imm: 1})
			f.Emit(oobVia(isa.RABr))
		})},
		{"brm/cmpbr-op", term(isa.BranchReg, ftBrmCmpBr, func(f *isa.Function) {
			// A trapping op makes the block non-lite: the trap exposes the
			// intermediate b[7] the fused compare wrote.
			f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "t"})
			f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 0, UseImm: true, Imm: 1})
			f.Emit(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondEQ, Rs1: 0, UseImm: true, Imm: 0, BSrc: 1})
			f.Emit(oobVia(isa.RABr))
		})},
		{"brm/calcbr-op", term(isa.BranchReg, ftBrmCalcBr, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "t"})
			f.Emit(oobVia(1))
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffEngines(t, tc.p, "", 0)
			if !strings.HasSuffix(tc.name, "-below-text") {
				return
			}
			_, err := runEngine(t, tc.p, "", LoopInstrumented, false, 0)
			var tr *Trap
			if !errors.As(err, &tr) || tr.Kind != TrapPCOutOfRange || tr.Detail != "jump out of text: index -2" {
				t.Errorf("instrumented run ended with %v, want a pc-out-of-range trap at index -2", err)
			}
		})
	}
}

func TestEnginesStepBudget(t *testing.T) {
	// The budget trap must fire at the same instruction with the same
	// limit/executed values from both engines.
	mk := func(kind isa.Kind) *isa.Program {
		f := isa.NewFunction("main", kind)
		if kind == isa.Baseline {
			f.Bind("loop")
			f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondAlways, Target: "loop"})
			f.Emit(isa.Instr{Op: isa.OpNop})
		} else {
			f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "loop"})
			f.Bind("loop")
			f.Emit(isa.Instr{Op: isa.OpNop, BR: 1})
		}
		p, err := isa.Link(&isa.Unit{Kind: kind, Funcs: []*isa.Function{f}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		for _, budget := range []int64{1, 7, 100} {
			t.Run(fmt.Sprintf("%v/budget%d", kind, budget), func(t *testing.T) {
				diffEngines(t, mk(kind), "", budget)
			})
		}
	}
}

func TestLoopFastRejectsHooksAndFaults(t *testing.T) {
	p := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m, err := New(p, "")
	if err != nil {
		t.Fatal(err)
	}
	m.Loop = LoopFast
	m.Hooks.Exec = func(int) {}
	if _, err := m.Run(); err == nil {
		t.Fatal("LoopFast with hooks should fail")
	}
}

func TestLoopAutoFallsBackForHooks(t *testing.T) {
	// With a hook installed, LoopAuto must take the instrumented path and
	// actually invoke the hook.
	p := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 1})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	m, err := New(p, "")
	if err != nil {
		t.Fatal(err)
	}
	execs := 0
	m.Hooks.Exec = func(int) { execs++ }
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if execs != 2 {
		t.Errorf("exec hook ran %d times, want 2", execs)
	}
}

func TestPutFloatMatchesFprintf(t *testing.T) {
	// The putf trap's strconv path must be byte-identical to the old
	// fmt.Fprintf("%.4f") for every value class.
	vals := []float64{
		0, 1, -1, 0.5, -0.5, 3.14159265, 1e-9, -1e-9, 1e20, -1e20,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 123456.789012,
	}
	for _, v := range vals {
		var m Machine
		m.putFloat(v)
		want := fmt.Sprintf("%.4f", v)
		if got := m.Output(); got != want {
			t.Errorf("putFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
