package branchreg

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs the
// experiment and reports the paper-relevant quantities as custom metrics,
// so `go test -bench=. -benchmem` regenerates the entire evaluation.

import (
	"context"
	"testing"

	"branchreg/internal/cache"
	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/exp"
	"branchreg/internal/isa"
	"branchreg/internal/obs"
	"branchreg/internal/pipeline"
	"branchreg/internal/workloads"
)

// benchSuite caches the full-suite result across benchmarks in one run.
var benchSuite *exp.SuiteResult

func suite(b *testing.B) *exp.SuiteResult {
	b.Helper()
	if benchSuite == nil {
		var runner exp.Runner // fresh compile cache per measured suite run
		r, err := runner.Run(context.Background(), exp.Spec{Options: driver.DefaultOptions()})
		if err != nil {
			b.Fatal(err)
		}
		benchSuite = r
	}
	return benchSuite
}

// BenchmarkTable1 regenerates Table I: dynamic instructions and data
// references for both machines over the 19-program suite. Paper: the BRM
// executed 6.8% fewer instructions with 2.0% more data references.
func BenchmarkTable1(b *testing.B) {
	var r *exp.SuiteResult
	for i := 0; i < b.N; i++ {
		benchSuite = nil
		r = suite(b)
	}
	b.ReportMetric(float64(r.BaselineTotal.Instructions), "baseline-insts")
	b.ReportMetric(float64(r.BRMTotal.Instructions), "brm-insts")
	b.ReportMetric(r.InstructionSavings(), "insts-saved-%")
	b.ReportMetric(float64(r.BaselineTotal.DataRefs()), "baseline-refs")
	b.ReportMetric(float64(r.BRMTotal.DataRefs()), "brm-refs")
	b.ReportMetric(r.ExtraDataRefs(), "extra-refs-%")
}

// BenchmarkCycles regenerates the §7 cycle estimates. Paper: 10.6% fewer
// cycles at 3 stages, 12.8% at 4.
func BenchmarkCycles(b *testing.B) {
	r := suite(b)
	var rows []exp.CycleRow
	for i := 0; i < b.N; i++ {
		rows = r.Cycles([]int{3, 4, 5})
	}
	b.ReportMetric(rows[0].SavingsPercent, "savings-3stage-%")
	b.ReportMetric(rows[1].SavingsPercent, "savings-4stage-%")
	b.ReportMetric(rows[2].SavingsPercent, "savings-5stage-%")
}

// BenchmarkRatios regenerates the §7 headline ratios. Paper: ~14% of
// baseline instructions were transfers; over 2 transfers per target calc;
// ~36% of delay-slot noops replaced; ~10 instructions saved per extra data
// reference; 13.86% of transfers delayed by a late calc.
func BenchmarkRatios(b *testing.B) {
	r := suite(b)
	var rt exp.Ratios
	for i := 0; i < b.N; i++ {
		rt = r.ComputeRatios()
	}
	b.ReportMetric(rt.TransferPercent, "transfers-%-of-insts")
	b.ReportMetric(rt.TransfersPerCalc, "transfers-per-calc")
	b.ReportMetric(rt.NoopReplacedPercent, "noops-eliminated-%")
	b.ReportMetric(rt.SavedPerExtraRef, "insts-saved-per-extra-ref")
	b.ReportMetric(rt.DelayedTransferPct, "late-calc-transfers-%")
}

// BenchmarkFig5 regenerates Figure 5's delay table (unconditional
// transfers: N-1 without delayed branches, N-2 with, 0 with branch
// registers).
func BenchmarkFig5(b *testing.B) {
	var rows []pipeline.DelayTable
	for i := 0; i < b.N; i++ {
		rows = pipeline.Figure5([]int{3, 4, 5})
	}
	b.ReportMetric(float64(rows[0].NoDelay), "nodelay-3stage")
	b.ReportMetric(float64(rows[0].Delayed), "delayed-3stage")
	b.ReportMetric(float64(rows[0].BranchRegs), "brm-3stage")
}

// BenchmarkFig6 regenerates Figure 6's pipeline trace: the BRM executes an
// unconditional transfer with zero bubble.
func BenchmarkFig6(b *testing.B) {
	var rows []pipeline.TraceRow
	for i := 0; i < b.N; i++ {
		rows = pipeline.Figure6()
	}
	bubble := rows[1].Execute - rows[0].Execute - 1
	b.ReportMetric(float64(bubble), "uncond-bubble-cycles")
}

// BenchmarkFig7 regenerates Figure 7's delay table (conditional
// transfers: N-1, N-2, N-3).
func BenchmarkFig7(b *testing.B) {
	var rows []pipeline.DelayTable
	for i := 0; i < b.N; i++ {
		rows = pipeline.Figure7([]int{3, 4, 5})
	}
	b.ReportMetric(float64(rows[0].BranchRegs), "brm-cond-3stage")
	b.ReportMetric(float64(rows[1].BranchRegs), "brm-cond-4stage")
}

// BenchmarkFig8 regenerates Figure 8's pipeline trace: the BRM conditional
// transfer also completes without a bubble at three stages.
func BenchmarkFig8(b *testing.B) {
	var rows []pipeline.TraceRow
	for i := 0; i < b.N; i++ {
		rows = pipeline.Figure8()
	}
	bubble := rows[2].Execute - rows[1].Execute - 1
	b.ReportMetric(float64(bubble), "cond-bubble-cycles")
}

// BenchmarkFig9 regenerates Figure 9's measured counterpart: how often the
// two-instruction prefetch distance is met across the suite. Paper
// estimate: 13.86% of transfers delayed.
func BenchmarkFig9(b *testing.B) {
	r := suite(b)
	var latePct float64
	for i := 0; i < b.N; i++ {
		rt := r.ComputeRatios()
		latePct = rt.DelayedTransferPct
	}
	taken := r.BRMTotal.PrefetchHit + r.BRMTotal.PrefetchMiss
	b.ReportMetric(float64(taken), "taken-transfers")
	b.ReportMetric(latePct, "late-calc-%")
	b.ReportMetric(float64(pipeline.PrefetchPenalty(&r.BRMTotal)), "penalty-cycles")
}

// BenchmarkCacheStudy regenerates the §8/§9 cache experiment: fetch delay
// cycles with and without prefetch-on-assignment at the default
// organization.
func BenchmarkCacheStudy(b *testing.B) {
	cfgs := []cache.Config{{LineWords: 8, Sets: 16, Assoc: 2, MissPenalty: 8}}
	var res []exp.CacheResult
	for i := 0; i < b.N; i++ {
		r := exp.Runner{Parallelism: 1}
		var err error
		res, err = r.CacheStudy(context.Background(), driver.DefaultOptions(), cfgs, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	off, on := res[0], res[1]
	b.ReportMetric(float64(off.Stats.DelayCycles), "delay-cycles-noprefetch")
	b.ReportMetric(float64(on.Stats.DelayCycles), "delay-cycles-prefetch")
	b.ReportMetric(float64(on.Stats.Pollution), "pollution-lines")
	b.ReportMetric(float64(on.Stats.PrefetchWaste), "wasted-prefetches")
}

// BenchmarkAblations regenerates the §9 design-alternative study over a
// representative subset: hoisting off, noop replacement off, scheduling
// off, and fewer branch registers.
func BenchmarkAblations(b *testing.B) {
	names := []string{"matmult", "dhrystone", "grep", "wc", "tinycc", "sieve"}
	var res []exp.AblationResult
	for i := 0; i < b.N; i++ {
		r := exp.Runner{Parallelism: 1}
		var err error
		res, err = r.Ablations(context.Background(), names)
		if err != nil {
			b.Fatal(err)
		}
	}
	byName := map[string]exp.AblationResult{}
	for _, r := range res {
		byName[r.Name] = r
	}
	full := byName["full (8 bregs)"]
	b.ReportMetric(float64(full.Instructions), "full-insts")
	b.ReportMetric(float64(byName["no hoisting"].Instructions), "nohoist-insts")
	b.ReportMetric(float64(byName["no noop replacement"].Instructions), "noreplace-insts")
	b.ReportMetric(float64(byName["3 branch registers"].Instructions), "3bregs-insts")
	b.ReportMetric(float64(byName["no calc scheduling"].Cycles3), "nosched-cycles3")
	b.ReportMetric(float64(full.Cycles3), "full-cycles3")
}

// BenchmarkCompile measures compilation speed for both back ends over the
// whole suite (tooling throughput, not a paper figure).
func BenchmarkCompile(b *testing.B) {
	o := driver.DefaultOptions()
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, w := range workloads.All() {
					if _, err := driver.Compile(context.Background(), w.FullSource(), kind, o); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkEmulator measures raw emulation speed (instructions per second)
// on a compute-bound workload. This is the throughput figure tracked in
// BENCH_emulator.json (see `make bench`); under default LoopAuto selection
// it exercises the block-fused loop.
func BenchmarkEmulator(b *testing.B) {
	o := driver.DefaultOptions()
	w, _ := workloads.ByName("sieve")
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var insts int64
			for i := 0; i < b.N; i++ {
				res, err := driver.Exec(context.Background(), driver.Request{Source: w.FullSource(), Kind: kind, Input: w.Input, Options: o})
				if err != nil {
					b.Fatal(err)
				}
				insts = res.Stats.Instructions
			}
			b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "emulated-insts/s")
		})
	}

	// The adaptive tier's win condition (ROADMAP): on compiler-shaped
	// workloads a superinstruction vocabulary mined from the program's own
	// pair/triple statistics must beat the static global table. tinycc is
	// that workload; both rows run a precompiled program so they compare
	// dispatch loops, not compile time, and the adaptive row is warmed
	// untimed so it measures the promoted steady state brserve's cached
	// programs reach.
	wt, _ := workloads.ByName("tinycc")
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		p, err := driver.Compile(context.Background(), wt.FullSource(), kind, o)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []struct {
			name string
			loop emu.LoopMode
		}{{"fused", emu.LoopFused}, {"adaptive", emu.LoopAdaptive}} {
			req := driver.Request{Program: p, Input: wt.Input, Loop: eng.loop}
			b.Run("tinycc/"+kind.String()+"/"+eng.name, func(b *testing.B) {
				if _, err := driver.Exec(context.Background(), req); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var insts int64
				for i := 0; i < b.N; i++ {
					res, err := driver.Exec(context.Background(), req)
					if err != nil {
						b.Fatal(err)
					}
					insts = res.Stats.Instructions
				}
				b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "emulated-insts/s")
			})
		}
	}
}

// BenchmarkEmulatorInstrumented measures the forced instruction-at-a-time
// Step loop on the same workload — the engine the cache/pipeline studies
// and fault injection pay for. The gap between this and BenchmarkEmulator
// is the predecode win.
func BenchmarkEmulatorInstrumented(b *testing.B) {
	o := driver.DefaultOptions()
	w, _ := workloads.ByName("sieve")
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			p, err := driver.Compile(context.Background(), w.FullSource(), kind, o)
			if err != nil {
				b.Fatal(err)
			}
			var insts int64
			for i := 0; i < b.N; i++ {
				res, err := driver.Exec(context.Background(), driver.Request{
					Program: p, Input: w.Input, Loop: emu.LoopInstrumented})
				if err != nil {
					b.Fatal(err)
				}
				insts = res.Stats.Instructions
			}
			b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "emulated-insts/s")
		})
	}
}

// BenchmarkModelValidation compares the paper's aggregate cycle model with
// the per-event pipeline simulation (untaken baseline branches free): the
// model's every-transfer charge is an upper bound on the baseline.
func BenchmarkModelValidation(b *testing.B) {
	var rows []exp.SimRow
	for i := 0; i < b.N; i++ {
		r := exp.Runner{Parallelism: 1}
		var err error
		rows, err = r.ModelValidation(context.Background(), driver.DefaultOptions(), 3,
			[]string{"sieve", "dhrystone"})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Kind == isa.Baseline && r.Name == "sieve" {
			b.ReportMetric(r.OverchargePct, "baseline-model-excess-%")
			b.ReportMetric(float64(r.SimCycles), "sieve-baseline-sim-cycles")
		}
		if r.Kind == isa.BranchReg && r.Name == "sieve" {
			b.ReportMetric(float64(r.SimCycles), "sieve-brm-sim-cycles")
		}
	}
}

// BenchmarkObservability measures the fully-observed steady state: a
// profiled 3-workload suite on one persistent Runner, so after the first
// iteration every compile is a cache hit and emulator memory comes from
// the pool. Unlike BenchmarkTable1 (fresh Runner per iteration, cold-path
// trajectory), this is the warm path the observability layer reports on:
// cache-hit-% and pool-reuse-% land in BENCH_emulator.json via
// benchrecord.
func BenchmarkObservability(b *testing.B) {
	names := []string{"sieve", "wc", "grep"}
	var runner exp.Runner // shared: warm compile cache, reused pool memory
	hits := obs.Default.Counter("driver.cache.hits")
	misses := obs.Default.Counter("driver.cache.misses")
	h0, m0 := hits.Value(), misses.Value()
	p0 := driver.PoolStatsNow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(context.Background(), exp.Spec{
			Workloads: names, Options: driver.DefaultOptions(), Profile: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if h, m := hits.Value()-h0, misses.Value()-m0; h+m > 0 {
		b.ReportMetric(100*float64(h)/float64(h+m), "cache-hit-%")
	}
	if p := driver.PoolStatsNow().Sub(p0); p.Gets > 0 {
		b.ReportMetric(100*float64(p.Reused())/float64(p.Gets), "pool-reuse-%")
	}
}

// BenchmarkAlignment measures the §9 function-entry alignment suggestion
// on a small cache (a negative result on this suite: alignment slightly
// increases footprint-driven misses).
func BenchmarkAlignment(b *testing.B) {
	cfg := cache.Config{LineWords: 8, Sets: 16, Assoc: 2, MissPenalty: 8}
	var rows []exp.AlignRow
	for i := 0; i < b.N; i++ {
		r := exp.Runner{Parallelism: 1}
		var err error
		rows, err = r.AlignmentStudy(context.Background(), cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].DelayCycles), "delay-cycles-unaligned")
	b.ReportMetric(float64(rows[1].DelayCycles), "delay-cycles-aligned")
}
