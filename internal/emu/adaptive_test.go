package emu

import (
	"context"
	"sync"
	"testing"

	"branchreg/internal/isa"
)

// Unit tests for the rule LoopAdaptive enters the fused form by. The
// end-to-end byte-identity contract lives in internal/driver (the
// adaptive differential matrix and FuzzAdaptiveDifferential); here we
// pin when a run enters the form, that the form is built once per
// program, and what it is charged.

// countdown builds a program that loops n times and exits: four
// instructions per iteration on the baseline machine, three on the BRM.
func countdown(t *testing.T, kind isa.Kind, n int32) *isa.Program {
	t.Helper()
	if kind == isa.Baseline {
		return buildBase(t, func(f *isa.Function) {
			f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 3, Rs1: 0, UseImm: true, Imm: n})
			f.Bind("loop")
			f.Emit(isa.Instr{Op: isa.OpSub, Rd: 3, Rs1: 3, UseImm: true, Imm: 1})
			f.Emit(isa.Instr{Op: isa.OpCmp, Rs1: 3, UseImm: true, Imm: 0})
			f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondGT, Target: "loop"})
			f.Emit(isa.Instr{Op: isa.OpNop})
			f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
		})
	}
	return buildBRM(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 3, Rs1: 0, UseImm: true, Imm: n})
		f.Emit(isa.Instr{Op: isa.OpBrCalc, Rd: 1, Rs1: -1, Target: "loop"})
		f.Bind("loop")
		f.Emit(isa.Instr{Op: isa.OpSub, Rd: 3, Rs1: 3, UseImm: true, Imm: 1})
		f.Emit(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondGT, Rs1: 3, UseImm: true, Imm: 0, BSrc: 1})
		f.Emit(isa.Instr{Op: isa.OpNop, BR: isa.RABr})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
}

func TestPromoteCtxFires(t *testing.T) {
	// The first poll of a live run enters the fused form; a run whose
	// own context has ended reports that instead.
	if err := (promoteCtx{context.Background()}).Err(); err != errPromote {
		t.Fatalf("live promoteCtx returned %v, want errPromote", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (promoteCtx{ctx}).Err(); err != context.Canceled {
		t.Fatalf("cancelled promoteCtx returned %v", err)
	}
}

func TestAdaptiveEntersFormByRule(t *testing.T) {
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		// A run shorter than the first poll stays on the fast loop and
		// builds nothing.
		p := countdown(t, kind, 1000)
		cold, err := runEngine(t, p, "", LoopAdaptive, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Stats.Instructions >= ctxCheckStride {
			t.Fatalf("%v: short program ran %d instructions", kind, cold.Stats.Instructions)
		}
		if cold.Refusion.Promoted || cold.Fusion.Blocks != 0 || AdaptiveBytes(p) != 0 {
			t.Fatalf("%v: cold run entered the form: %+v %+v, %d bytes",
				kind, cold.Refusion, cold.Fusion, AdaptiveBytes(p))
		}
		// Its second run enters the form from the start.
		warm, err := runEngine(t, p, "", LoopAdaptive, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Refusion.Promoted || warm.Fusion.Blocks == 0 || warm.Fusion.Bails != 0 {
			t.Fatalf("%v: second run did not run in the form: %+v %+v", kind, warm.Refusion, warm.Fusion)
		}
		if got, want := AdaptiveBytes(p), warm.fp.bytes(); got == 0 || got != want {
			t.Fatalf("%v: AdaptiveBytes = %d, want the form's %d", kind, got, want)
		}
		ref, ierr := runEngine(t, p, "", LoopInstrumented, false, 0)
		diffMachines(t, "adaptive-warm", warm, err, ref, ierr)

		// A run longer than the first poll switches mid-run: it enters
		// the form, but fewer blocks than a whole fused run executes.
		long := countdown(t, kind, 50000)
		mid, err := runEngine(t, long, "", LoopAdaptive, false, 0)
		fused, ferr := runEngine(t, long, "", LoopFused, false, 0)
		ref, ierr = runEngine(t, long, "", LoopInstrumented, false, 0)
		diffMachines(t, "adaptive-mid-run", mid, err, ref, ierr)
		diffMachines(t, "fused", fused, ferr, ref, ierr)
		if !mid.Refusion.Promoted || mid.Fusion.Blocks == 0 || mid.Fusion.Blocks >= fused.Fusion.Blocks {
			t.Fatalf("%v: long run did not switch at its first poll: %+v, adaptive %+v, fused %+v",
				kind, mid.Refusion, mid.Fusion, fused.Fusion)
		}
	}
}

func TestFusedFormSharedAcrossRuns(t *testing.T) {
	// LoopFused, LoopAuto and LoopAdaptive runs of one program share the
	// one form the first of them built.
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		p := countdown(t, kind, 10)
		var fp *fprog
		for _, mode := range []LoopMode{LoopFused, LoopAuto, LoopAdaptive, LoopFused} {
			m, err := runEngine(t, p, "", mode, false, 0)
			if err != nil {
				t.Fatal(err)
			}
			if fp == nil {
				fp = m.fp
			}
			if m.fp == nil || m.fp != fp || &m.dec[0] != &fp.dec[0] {
				t.Fatalf("%v mode %d: run did not use the program's one form", kind, mode)
			}
			if mode == LoopAdaptive && !m.Refusion.Promoted {
				t.Fatalf("%v: adaptive run of a program with a form stayed cold", kind)
			}
		}
		if AdaptiveBytes(p) != fp.bytes() {
			t.Fatalf("%v: AdaptiveBytes = %d, want %d", kind, AdaptiveBytes(p), fp.bytes())
		}
	}
}

func TestFusedFormConcurrentRuns(t *testing.T) {
	// Concurrent first runs of one program race to build its form: every
	// run must still match the instrumented loop, and all must end up
	// sharing the one form that was published.
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		p := countdown(t, kind, 30000)
		ref, ierr := runEngine(t, p, "", LoopInstrumented, false, 0)
		const runners = 8
		machines := make([]*Machine, runners)
		errs := make([]error, runners)
		var wg sync.WaitGroup
		for i := 0; i < runners; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m, err := New(p, "")
				if err != nil {
					errs[i] = err
					return
				}
				m.Loop = LoopAdaptive
				if i%2 == 1 {
					m.Loop = LoopFused
				}
				_, errs[i] = m.Run()
				machines[i] = m
			}(i)
		}
		wg.Wait()
		fp := formStateFor(p).fp.Load()
		for i, m := range machines {
			diffMachines(t, "concurrent", m, errs[i], ref, ierr)
			if m.fp != nil && m.fp != fp {
				t.Fatalf("%v runner %d ran a form that was not published", kind, i)
			}
		}
		if fp == nil {
			t.Fatalf("%v: no form published after fused runs", kind)
		}
	}
}
