package emu

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"branchreg/internal/isa"
)

// loopBRM builds a two-instruction infinite loop: brcalc b[1] = loop,
// then a noop transferring through b[1].
func loopBRM(t *testing.T) *isa.Program {
	return buildBRM(t, func(f *isa.Function) {
		f.Bind("loop")
		f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "loop"})
		f.Emit(isa.Instr{Op: isa.OpNop, BR: 1})
	})
}

// runPlanned runs p with plan armed, returning the machine and error.
func runPlanned(t *testing.T, p *isa.Program, plan *FaultPlan) (*Machine, error) {
	t.Helper()
	m, err := New(p, "")
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultPlan(plan)
	_, err = m.Run()
	return m, err
}

// trapFrom asserts err carries a *Trap of the wanted kind, even through
// wrapping, and returns it.
func trapFrom(t *testing.T, err error, want TrapKind) *Trap {
	t.Helper()
	if err == nil {
		t.Fatalf("run succeeded, want %v trap", want)
	}
	var trap *Trap
	if !errors.As(fmt.Errorf("wrapped: %w", err), &trap) {
		t.Fatalf("error %v is not a *Trap", err)
	}
	if trap.Kind != want {
		t.Fatalf("trap kind = %v, want %v (full: %v)", trap.Kind, want, trap)
	}
	return trap
}

func TestFaultForceTrapContext(t *testing.T) {
	p := loopBRM(t)
	_, err := runPlanned(t, p, &FaultPlan{Ops: []FaultOp{{Kind: FaultForceTrap, N: 1}}})
	trap := trapFrom(t, err, TrapInjected)
	if trap.Fn != "main" {
		t.Errorf("trap fn = %q, want main", trap.Fn)
	}
	if trap.PC != isa.TextBase {
		t.Errorf("trap pc = %#x, want first instruction %#x", trap.PC, isa.TextBase)
	}
	if trap.Instr == "" {
		t.Error("trap lost the faulting instruction's RTL")
	}
}

func TestFaultTruncateBudget(t *testing.T) {
	p := loopBRM(t)
	_, err := runPlanned(t, p, &FaultPlan{Ops: []FaultOp{{Kind: FaultTruncateBudget, N: 1, Budget: 10}}})
	trap := trapFrom(t, err, TrapStepBudget)
	// The step-budget trap must make timeouts diagnosable: it carries
	// the configured limit and the executed count.
	if trap.Limit != 10 {
		t.Errorf("trap limit = %d, want 10", trap.Limit)
	}
	if trap.Executed != trap.Limit+1 {
		t.Errorf("trap executed = %d, want limit+1", trap.Executed)
	}
}

func TestFaultUninitBranchReg(t *testing.T) {
	p := loopBRM(t)
	// Invalidate b[1] just before the noop that transfers through it.
	plan := &FaultPlan{Ops: []FaultOp{{Kind: FaultCorruptBReg, BReg: 1, Invalidate: true, N: 2}}}
	_, err := runPlanned(t, p, plan)
	trap := trapFrom(t, err, TrapUninitBranchReg)
	if trap.Fn != "main" || trap.PC != isa.IndexToAddr(1) {
		t.Errorf("trap context = %s@%#x, want main@%#x", trap.Fn, trap.PC, isa.IndexToAddr(1))
	}
}

func TestFaultCorruptBRegReplayable(t *testing.T) {
	p := loopBRM(t)
	run := func() *Trap {
		plan := &FaultPlan{Seed: 42, Ops: []FaultOp{{Kind: FaultCorruptBReg, BReg: 1, N: 2}}}
		_, err := runPlanned(t, p, plan)
		return trapFrom(t, err, TrapPCOutOfRange)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same plan, different traps:\n%v\n%v", a, b)
	}
}

func TestFaultFlipWordDeterministic(t *testing.T) {
	data := &isa.DataItem{Label: "x", Kind: isa.DataWords, Words: []int32{7}}
	p := buildBRM(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: isa.ZeroReg, DataTarget: "x"})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	}, data)

	clean, err := runPlanned(t, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Status() != 7 {
		t.Fatalf("clean status = %d, want 7", clean.Status())
	}
	run := func() int32 {
		plan := &FaultPlan{Seed: 3, Ops: []FaultOp{{Kind: FaultFlipWord, Addr: isa.DataBase, N: 1}}}
		m, err := runPlanned(t, p, plan)
		if err != nil {
			t.Fatalf("flip-word corrupted the run into a trap: %v", err)
		}
		return m.Status()
	}
	a, b := run(), run()
	if a == clean.Status() {
		t.Error("flip-word fault did not corrupt the loaded value")
	}
	if a != b {
		t.Errorf("same seed, different corruption: %d vs %d", a, b)
	}
}

func TestFaultPanic(t *testing.T) {
	p := loopBRM(t)
	m, err := New(p, "")
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultPlan(&FaultPlan{Ops: []FaultOp{{Kind: FaultPanic, N: 5}}})
	defer func() {
		if recover() == nil {
			t.Error("FaultPanic did not panic")
		}
	}()
	_, _ = m.Run()
	t.Error("run returned instead of panicking")
}

// TestFaultFunctionFilter proves the injector's trigger point is the Nth
// executed instruction of the named function, not of the whole run.
func TestFaultFunctionFilter(t *testing.T) {
	main := isa.NewFunction("main", isa.Baseline)
	main.Emit(isa.Instr{Op: isa.OpCall, Target: "leaf"})
	main.Emit(isa.Instr{Op: isa.OpNop}) // delay slot
	main.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	leaf := isa.NewFunction("leaf", isa.Baseline)
	leaf.Emit(isa.Instr{Op: isa.OpNop})
	leaf.Emit(isa.Instr{Op: isa.OpNop})
	leaf.Emit(isa.Instr{Op: isa.OpJr, Rs1: isa.RABase})
	leaf.Emit(isa.Instr{Op: isa.OpNop}) // delay slot
	p, err := isa.Link(&isa.Unit{Kind: isa.Baseline, Funcs: []*isa.Function{main, leaf}}, 0)
	if err != nil {
		t.Fatal(err)
	}

	plan := &FaultPlan{Ops: []FaultOp{{Kind: FaultForceTrap, Fn: "leaf", N: 2}}}
	_, err = runPlanned(t, p, plan)
	trap := trapFrom(t, err, TrapInjected)
	if trap.Fn != "leaf" {
		t.Errorf("trap fn = %q, want leaf", trap.Fn)
	}
	// leaf's 2nd instruction: main is 3 instructions, so Text index 4.
	if want := isa.IndexToAddr(4); trap.PC != want {
		t.Errorf("trap pc = %#x, want %#x", trap.PC, want)
	}

	// The same plan without the filter fires on main's 2nd instruction.
	plan = &FaultPlan{Ops: []FaultOp{{Kind: FaultForceTrap, N: 2}}}
	_, err = runPlanned(t, p, plan)
	if trap := trapFrom(t, err, TrapInjected); trap.Fn != "main" {
		t.Errorf("unfiltered trap fn = %q, want main", trap.Fn)
	}
}

func TestTrapKindRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range TrapKinds() {
		name := k.String()
		if seen[name] {
			t.Errorf("duplicate trap kind name %q", name)
		}
		seen[name] = true
		got, ok := ParseTrapKind(name)
		if !ok || got != k {
			t.Errorf("ParseTrapKind(%q) = %v, %v", name, got, ok)
		}
		b, err := json.Marshal(&Trap{Kind: k, PC: 4096, Fn: "main"})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var back Trap
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if back.Kind != k {
			t.Errorf("JSON round trip: %v -> %v", k, back.Kind)
		}
	}
	if _, ok := ParseTrapKind("no-such-kind"); ok {
		t.Error("ParseTrapKind accepted an unknown name")
	}
	var bad Trap
	if err := json.Unmarshal([]byte(`{"kind":"no-such-kind"}`), &bad); err == nil {
		t.Error("unmarshal accepted an unknown trap kind")
	}
}
