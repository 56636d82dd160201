package exp

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// linkProg assembles a one-function program for trap-scenario tests.
func linkProg(t *testing.T, kind isa.Kind, emitTo func(f *isa.Function)) *isa.Program {
	t.Helper()
	f := isa.NewFunction("main", kind)
	emitTo(f)
	p, err := isa.Link(&isa.Unit{Kind: kind, Funcs: []*isa.Function{f}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// brmLoop emits the two-instruction infinite loop used by budget and
// injection scenarios.
func brmLoop(f *isa.Function) {
	f.Bind("loop")
	f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "loop"})
	f.Emit(isa.Instr{Op: isa.OpNop, BR: 1})
}

// TestTrapKindsThroughDriverAndSchema drives every TrapKind through
// driver.Exec — real execution or a deterministic fault
// plan — and round-trips the resulting typed failure through the JSON
// report schema. A new TrapKind without a scenario here fails the test.
func TestTrapKindsThroughDriverAndSchema(t *testing.T) {
	exitInstr := isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit}
	type scenario struct {
		p    *isa.Program
		plan *emu.FaultPlan
	}
	scenarios := map[emu.TrapKind]scenario{
		emu.TrapOOBLoad: {p: linkProg(t, isa.Baseline, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: isa.ZeroReg, UseImm: true, Imm: -8})
			f.Emit(exitInstr)
		})},
		emu.TrapOOBStore: {p: linkProg(t, isa.Baseline, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpSw, Rd: 1, Rs1: isa.ZeroReg, UseImm: true, Imm: -8})
			f.Emit(exitInstr)
		})},
		emu.TrapMisaligned: {p: linkProg(t, isa.Baseline, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: isa.ZeroReg, UseImm: true, Imm: 2})
			f.Emit(exitInstr)
		})},
		// A single noop: control falls off the end of the text segment.
		emu.TrapPCOutOfRange: {p: linkProg(t, isa.Baseline, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpNop})
		})},
		emu.TrapStepBudget: {
			p:    linkProg(t, isa.BranchReg, brmLoop),
			plan: &emu.FaultPlan{Ops: []emu.FaultOp{{Kind: emu.FaultTruncateBudget, N: 1, Budget: 10}}},
		},
		emu.TrapIllegalInstr: {p: linkProg(t, isa.Baseline, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: 99})
		})},
		emu.TrapUninitBranchReg: {p: linkProg(t, isa.BranchReg, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpNop, BR: 3})
		})},
		emu.TrapArithmetic: {p: linkProg(t, isa.Baseline, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 1, Rs1: isa.ZeroReg, UseImm: true, Imm: 5})
			f.Emit(isa.Instr{Op: isa.OpDiv, Rd: 1, Rs1: 1, Rs2: isa.ZeroReg})
			f.Emit(exitInstr)
		})},
		emu.TrapInjected: {
			p:    linkProg(t, isa.BranchReg, brmLoop),
			plan: &emu.FaultPlan{Ops: []emu.FaultOp{{Kind: emu.FaultForceTrap, N: 1}}},
		},
	}

	for _, kind := range emu.TrapKinds() {
		sc, ok := scenarios[kind]
		if !ok {
			t.Errorf("no driver scenario for trap kind %v", kind)
			continue
		}
		_, err := driver.Exec(context.Background(), driver.Request{Program: sc.p, Faults: sc.plan})
		if err == nil {
			t.Errorf("%v: scenario ran cleanly", kind)
			continue
		}
		var trap *emu.Trap
		if !errors.As(err, &trap) {
			t.Errorf("%v: driver error %v is not a *emu.Trap", kind, err)
			continue
		}
		if trap.Kind != kind {
			t.Errorf("scenario for %v trapped as %v", kind, trap.Kind)
			continue
		}
		// A pc past the text segment has no enclosing function; every
		// other trap must name one.
		if trap.Fn != "main" && !(kind == emu.TrapPCOutOfRange && trap.Fn == "?") {
			t.Errorf("%v: trap fn = %q, want main", kind, trap.Fn)
		}

		// Classify as the report's per-job error and round-trip the
		// schema: kind and trap context must survive encode/decode.
		je := newJobError("suite", "w", "BRM", true, err)
		if je.Kind != kind.String() || je.Trap == nil {
			t.Errorf("%v: classified as %+v", kind, je)
			continue
		}
		rep := &Report{Schema: ReportSchemaVersion, Tool: "test", Errors: []*JobError{je}}
		b, err := rep.Encode()
		if err != nil {
			t.Fatalf("%v: encode: %v", kind, err)
		}
		back, err := DecodeReport(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", kind, err)
		}
		got := back.Errors[0]
		if got.Kind != kind.String() || got.Trap == nil || got.Trap.Kind != kind {
			t.Errorf("%v: JSON round trip lost the kind: %+v", kind, got)
		}
	}
}

// panicFaults arms a panic inside one suite cell.
func panicFaults() map[string]*emu.FaultPlan {
	return map[string]*emu.FaultPlan{
		FaultKey("wc", isa.BranchReg): {Ops: []emu.FaultOp{{Kind: emu.FaultPanic, N: 100}}},
	}
}

// TestRunnerPanicFirstErrorCancels: without keep-going, a panicking job
// surfaces as a structured error from Run — the pool (and the process)
// survives, and the error names the panic.
func TestRunnerPanicFirstErrorCancels(t *testing.T) {
	r := Runner{Parallelism: 4}
	_, err := r.Run(context.Background(), Spec{
		Workloads: []string{"wc", "sieve"},
		Options:   driver.DefaultOptions(),
		Faults:    panicFaults(),
	})
	if err == nil {
		t.Fatal("suite with a panicking cell succeeded")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("error %v does not unwrap to *PanicError", err)
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("error does not name the panic: %v", err)
	}
}

// TestKeepGoingSurvivesPanic: with keep-going, the panicking cell
// degrades to a typed failure while every other cell still measures.
func TestKeepGoingSurvivesPanic(t *testing.T) {
	r := Runner{Parallelism: 4}
	res, err := r.Run(context.Background(), Spec{
		Workloads: []string{"wc", "sieve"},
		Options:   driver.DefaultOptions(),
		KeepGoing: true,
		Faults:    panicFaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %d, want 1: %+v", len(res.Failures), res.Failures)
	}
	fe := res.Failures[0]
	if fe.Kind != FailPanic || fe.Workload != "wc" || fe.Machine != "BRM" {
		t.Errorf("failure = %+v, want wc/BRM panic", fe)
	}
	for _, p := range res.Programs {
		if p.Name == "wc" {
			if p.BRMErr == nil || p.BRMErr.Kind != FailPanic {
				t.Errorf("wc BRM cell error = %+v, want panic", p.BRMErr)
			}
			if p.Baseline.Instructions == 0 {
				t.Error("wc baseline cell lost its stats")
			}
		} else if p.Failed() || p.BRM.Instructions == 0 {
			t.Errorf("untouched workload %s degraded: %+v", p.Name, p)
		}
	}
}

// TestKeepGoingDeterministic: a keep-going run's result — stats, failure
// list, rendered tables, and JSON — is byte-identical at any parallelism.
func TestKeepGoingDeterministic(t *testing.T) {
	spec := Spec{
		Workloads: []string{"wc", "grep", "sieve"},
		Options:   driver.DefaultOptions(),
		KeepGoing: true,
		Faults: map[string]*emu.FaultPlan{
			FaultKey("wc", isa.BranchReg):   {Ops: []emu.FaultOp{{Kind: emu.FaultForceTrap, N: 50}}},
			FaultKey("sieve", isa.Baseline): {Ops: []emu.FaultOp{{Kind: emu.FaultTruncateBudget, N: 1, Budget: 200}}},
		},
	}
	render := func(par int) (string, string) {
		r := Runner{Parallelism: par}
		res, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(res), string(b)
	}
	wantTables, wantJSON := render(1)
	if !strings.Contains(wantTables, "FAIL(injected)") ||
		!strings.Contains(wantTables, "FAIL(step-budget)") {
		t.Fatalf("tables do not mark the faulted cells:\n%s", wantTables)
	}
	for _, par := range []int{2, 8} {
		tables, js := render(par)
		if tables != wantTables {
			t.Errorf("parallelism %d: tables differ:\n%s\n-- vs --\n%s", par, tables, wantTables)
		}
		if js != wantJSON {
			t.Errorf("parallelism %d: JSON differs", par)
		}
	}
}

// TestDifferentialOracle: when both machines run cleanly but disagree,
// the suite reports a typed output-mismatch failure.
func TestDifferentialOracle(t *testing.T) {
	// The BRM cell's data segment is corrupted before the first
	// instruction, so it returns a different status than the baseline —
	// cleanly, which is exactly what the oracle must catch.
	suite := []workloads.Workload{{
		Name:      "oracle",
		Source:    "int g = 7;\nint main(void) { return g; }",
		NoPrelude: true,
	}}
	faults := map[string]*emu.FaultPlan{
		FaultKey("oracle", isa.BranchReg): {Seed: 11,
			Ops: []emu.FaultOp{{Kind: emu.FaultFlipWord, Addr: isa.DataBase, N: 1}}},
	}

	var r Runner
	_, err := r.Run(context.Background(), Spec{
		Suite: suite, Options: driver.DefaultOptions(), Faults: faults,
	})
	if err == nil {
		t.Fatal("diverging machines passed the oracle")
	}
	var je *JobError
	if !errors.As(err, &je) || je.Kind != FailOracle {
		t.Fatalf("oracle error = %v, want kind %s", err, FailOracle)
	}

	// Keep-going mode records the mismatch and still returns the result.
	res, err := r.Run(context.Background(), Spec{
		Suite: suite, Options: driver.DefaultOptions(), Faults: faults, KeepGoing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Kind != FailOracle {
		t.Fatalf("failures = %+v, want one %s", res.Failures, FailOracle)
	}
	if res.Programs[0].OracleErr == nil {
		t.Error("program row lost the oracle error")
	}
}
