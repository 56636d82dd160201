package driver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// Differential coverage for the adaptive tier (emu.LoopAdaptive): at any
// point of its rule — a cold run on the fast loop, the switch to the
// fused form at the first context poll (mid-run), a later run in the
// form from the start — an adaptive run must be byte-identical to the
// instrumented and fast references: output, status, Stats, trap
// kind/PC/detail, and step-budget Limit/Executed. Each program is
// compiled fresh per case so its fused form (keyed by program identity)
// is isolated, and each case runs twice in sequence: run 1 is cold, run
// 2 enters the form when run 1 reached it or ran at all.

// firstPoll is where a cold adaptive run switches to the fused form:
// the fast loop's first context poll (emu's ctxCheckStride).
const firstPoll = 1 << 16

// adaptiveBudgets straddle the first poll: no budget, one instruction
// before it, at it, and just past it (inside the bridge to the next
// block leader, and beyond).
var adaptiveBudgets = []int64{0, firstPoll - 1, firstPoll, firstPoll + 1, firstPoll + 100}

// runAdaptiveAgainstReference executes p twice under LoopAdaptive with
// the given budget, comparing each run against instrumented and fast
// runs of the same request.
func runAdaptiveAgainstReference(t *testing.T, p *isa.Program, input string, budget int64) {
	t.Helper()
	type ref struct {
		res *Result
		err error
	}
	var refs []ref
	for _, loop := range []emu.LoopMode{emu.LoopInstrumented, emu.LoopFast} {
		res, err := Exec(context.Background(), Request{
			Program: p, Input: input, Loop: loop, MaxInstructions: budget,
		})
		refs = append(refs, ref{res, err})
	}
	for run := 1; run <= 2; run++ {
		res, err := Exec(context.Background(), Request{
			Program: p, Input: input, Loop: emu.LoopAdaptive, MaxInstructions: budget,
		})
		for _, r := range refs {
			if (err == nil) != (r.err == nil) {
				t.Fatalf("budget %d run %d error divergence: adaptive=%v reference=%v",
					budget, run, err, r.err)
			}
			if err != nil {
				var at, rt *emu.Trap
				if errors.As(err, &at) != errors.As(r.err, &rt) {
					t.Fatalf("budget %d run %d trap-ness divergence: adaptive=%v reference=%v",
						budget, run, err, r.err)
				}
				if at != nil && !reflect.DeepEqual(*at, *rt) {
					t.Fatalf("budget %d run %d trap divergence:\n adaptive:  %+v\n reference: %+v",
						budget, run, *at, *rt)
				}
				continue
			}
			if res.Engine != emu.EngineAdaptive {
				t.Fatalf("budget %d run %d engine %q, want %q", budget, run, res.Engine, emu.EngineAdaptive)
			}
			if run == 2 && !res.Refusion.Promoted {
				t.Fatalf("budget %d: second run stayed off the fused form: %+v", budget, res.Refusion)
			}
			refEq := *r.res
			refEq.Engine = res.Engine     // only the engine name
			refEq.Fusion = res.Fusion     // and the tier-descriptive counters
			refEq.Refusion = res.Refusion // may differ between tiers
			if !eqResult(*res, refEq) {
				t.Fatalf("budget %d run %d result divergence:\n adaptive:  %+v\n reference: %+v",
					budget, run, res, r.res)
			}
		}
	}
}

func TestAdaptiveWorkloadDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix adaptive differential is not short")
	}
	o := DefaultOptions()
	for _, w := range workloads.All() {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			w, kind := w, kind
			t.Run(fmt.Sprintf("%s/%v", w.Name, kind), func(t *testing.T) {
				t.Parallel()
				for _, budget := range adaptiveBudgets {
					// A fresh compile per budget isolates the fused form:
					// program identity keys it.
					p, err := Compile(context.Background(), w.FullSource(), kind, o)
					if err != nil {
						t.Fatal(err)
					}
					runAdaptiveAgainstReference(t, p, w.Input, budget)
				}
			})
		}
	}
}

func TestAdaptiveStepBudgetTrap(t *testing.T) {
	// Step-budget traps must carry identical Limit/Executed wherever the
	// budget lands: on the cold fast loop (before the first poll), just
	// past the switch, or deep in the fused form.
	w, ok := workloads.ByName("sieve")
	if !ok {
		t.Fatal("no sieve workload")
	}
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		for _, budget := range []int64{1000, 70_000, 300_000} {
			p, err := Compile(context.Background(), w.FullSource(), kind, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			runAdaptiveAgainstReference(t, p, w.Input, budget)
		}
	}
}

func TestAdaptivePromotionLifecycle(t *testing.T) {
	// The rule itself, on both machines. A program whose run ends before
	// the first poll leaves nothing on the program; its second run
	// enters the fused form from the start. A longer program's first run
	// switches to the form at its first poll, so it runs fewer fused
	// blocks than a run that started in the form.
	ctx := context.Background()
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		short, _ := workloads.ByName("tr")
		p, err := Compile(ctx, short.FullSource(), kind, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Program: p, Input: short.Input, Loop: emu.LoopAdaptive}
		first, err := Exec(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if first.Stats.Instructions >= firstPoll {
			t.Fatalf("%v: tr ran %d instructions, not a short program", kind, first.Stats.Instructions)
		}
		if b := emu.AdaptiveBytes(p); b != 0 || first.Refusion.Promoted || first.Fusion.Blocks != 0 {
			t.Fatalf("%v: one short run left %d bytes (refusion %+v, fusion %+v), want none",
				kind, b, first.Refusion, first.Fusion)
		}
		second, err := Exec(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !second.Refusion.Promoted || second.Fusion.Blocks == 0 || emu.AdaptiveBytes(p) == 0 {
			t.Fatalf("%v: second run did not enter the fused form: %+v %+v", kind, second.Refusion, second.Fusion)
		}
		if first.Output != second.Output || first.Stats != second.Stats {
			t.Fatalf("%v: cold and fused runs diverge", kind)
		}

		long, _ := workloads.ByName("dhrystone")
		lp, err := Compile(ctx, long.FullSource(), kind, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		mid, err := Exec(ctx, Request{Program: lp, Input: long.Input, Loop: emu.LoopAdaptive})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := Exec(ctx, Request{Program: lp, Input: long.Input, Loop: emu.LoopAdaptive})
		if err != nil {
			t.Fatal(err)
		}
		if !mid.Refusion.Promoted || mid.Fusion.Blocks == 0 || mid.Fusion.Blocks >= whole.Fusion.Blocks {
			t.Fatalf("%v: first long run did not switch mid-run: %+v, fusion %+v (whole run %+v)",
				kind, mid.Refusion, mid.Fusion, whole.Fusion)
		}
		if mid.Output != whole.Output || mid.Stats != whole.Stats {
			t.Fatalf("%v: mid-run switch and fused run diverge", kind)
		}
	}
}

func TestAdaptiveRejectsHooksAndFaults(t *testing.T) {
	w, _ := workloads.ByName("wc")
	p, err := Compile(context.Background(), w.FullSource(), isa.Baseline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := &emu.FaultPlan{Seed: 1, Ops: []emu.FaultOp{{Kind: emu.FaultCorruptBReg, N: 1}}}
	_, err = Exec(context.Background(), Request{Program: p, Input: w.Input,
		Loop: emu.LoopAdaptive, Faults: plan})
	if err == nil {
		t.Fatal("LoopAdaptive accepted a fault plan")
	}
	var trap *emu.Trap
	if errors.As(err, &trap) {
		t.Fatalf("fault-plan rejection should not be a trap: %v", err)
	}
}

// FuzzAdaptiveDifferential is the adaptive tier's coverage-guided
// differential (wired into `make fuzz-smoke`): one generated program per
// input, run on both machines under the fast loop (reference) and twice
// under the adaptive tier with a fuzzed budget — so the budget cutoff
// lands at arbitrary offsets from the switch to the fused form,
// including inside the bridge to the next block leader. Asserts
// identical output, status, Stats, and trap fields.
func FuzzAdaptiveDifferential(f *testing.F) {
	f.Add(int64(1), int64(0))
	f.Add(int64(20260806), int64(1000))
	f.Add(int64(7), int64(70001))
	f.Fuzz(func(t *testing.T, seed, budget int64) {
		gen := &progGen{r: rand.New(rand.NewSource(seed))}
		src := gen.generate()
		o := DefaultOptions()
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(context.Background(), src, kind, o)
			if err != nil {
				t.Fatalf("%v: %v\nprogram:\n%s", kind, err, src)
			}
			run := func(mode emu.LoopMode) (*emu.Machine, error) {
				m, err := emu.New(p, "")
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				m.Loop = mode
				if budget > 0 {
					m.MaxInstructions = budget % (1 << 20)
				}
				_, runErr := m.Run()
				return m, runErr
			}
			fm, ferr := run(emu.LoopFast)
			for i := 0; i < 2; i++ {
				am, aerr := run(emu.LoopAdaptive)
				if (ferr == nil) != (aerr == nil) {
					t.Fatalf("%v run %d error divergence: fast=%v adaptive=%v\nprogram:\n%s",
						kind, i, ferr, aerr, src)
				}
				if ferr != nil {
					var ft, at *emu.Trap
					fok, aok := errors.As(ferr, &ft), errors.As(aerr, &at)
					if fok != aok {
						t.Fatalf("%v run %d trap-ness divergence: fast=%v adaptive=%v", kind, i, ferr, aerr)
					}
					if fok && *ft != *at {
						t.Fatalf("%v run %d trap divergence:\n fast:     %+v\n adaptive: %+v\nprogram:\n%s",
							kind, i, *ft, *at, src)
					}
				}
				if fm.Output() != am.Output() || fm.Status() != am.Status() || fm.Stats != am.Stats {
					t.Fatalf("%v run %d adaptive divergence: output %q vs %q, status %d vs %d\nprogram:\n%s",
						kind, i, fm.Output(), am.Output(), fm.Status(), am.Status(), src)
				}
			}
		}
	})
}
