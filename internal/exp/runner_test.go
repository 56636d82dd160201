package exp

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// renderAll fingerprints every table the suite result can produce, so the
// equality test covers -table1 -cycles -ratios -fig9 byte for byte.
func renderAll(r *SuiteResult) string {
	return r.Table1() + r.CycleTable([]int{3, 4, 5}) + r.RatiosTable() + r.DistanceHistogram()
}

// TestParallelMatchesSerial asserts the tentpole guarantee: the worker
// pool's SuiteResult — programs, totals, histograms, and every rendered
// table — is byte-identical to the serial path at any parallelism.
func TestParallelMatchesSerial(t *testing.T) {
	o := driver.DefaultOptions()
	ref := runSubset(t, fastSubset)
	for _, par := range []int{2, 4, 8} {
		r := Runner{Parallelism: par}
		got, err := r.Run(context.Background(), Spec{Workloads: fastSubset, Options: o})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("parallelism %d: SuiteResult differs from serial", par)
		}
		if a, b := renderAll(ref), renderAll(got); a != b {
			t.Errorf("parallelism %d: rendered tables differ from serial:\n%s\n-- vs --\n%s", par, a, b)
		}
	}
}

// TestProfiledSuiteDeterministic extends the guarantee to -profile: the
// engine fields and hot-block tables are derived from deterministic runs,
// so a profiled SuiteResult must be identical at any parallelism too.
func TestProfiledSuiteDeterministic(t *testing.T) {
	o := driver.DefaultOptions()
	run := func(par int) *SuiteResult {
		r := Runner{Parallelism: par}
		got, err := r.Run(context.Background(),
			Spec{Workloads: fastSubset, Options: o, Profile: true})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return got
	}
	ref := run(1)
	for _, p := range ref.Programs {
		if p.BaselineEngine != "fast" || p.BRMEngine != "fast" {
			t.Errorf("%s: engines %q/%q, want fast/fast (profiled runs take the profiled fast loop)",
				p.Name, p.BaselineEngine, p.BRMEngine)
		}
		if len(p.BaselineBlocks) == 0 || len(p.BRMBlocks) == 0 {
			t.Errorf("%s: missing hot blocks (%d baseline, %d BRM)",
				p.Name, len(p.BaselineBlocks), len(p.BRMBlocks))
		}
	}
	if got := run(4); !reflect.DeepEqual(ref, got) {
		t.Error("profiled SuiteResult differs between 1 and 4 workers")
	}
}

// TestSuiteEngineTiersIdentical pins Spec.Loop: the suite's stats,
// totals, and rendered tables must be byte-identical whichever engine
// executes the cells, and the engine/fusion fields must record which one
// did. Parallelism 4 so the tier sweep also runs under the race detector
// with a busy pool (`make check`).
func TestSuiteEngineTiersIdentical(t *testing.T) {
	o := driver.DefaultOptions()
	run := func(loop emu.LoopMode) *SuiteResult {
		r := Runner{Parallelism: 4}
		got, err := r.Run(context.Background(),
			Spec{Workloads: fastSubset, Options: o, Loop: loop})
		if err != nil {
			t.Fatalf("loop %d: %v", loop, err)
		}
		return got
	}
	ref := run(emu.LoopInstrumented)
	for _, p := range ref.Programs {
		if p.BaselineEngine != emu.EngineInstrumented || p.BRMEngine != emu.EngineInstrumented {
			t.Fatalf("%s: engines %q/%q, want instrumented", p.Name, p.BaselineEngine, p.BRMEngine)
		}
	}
	for _, tier := range []struct {
		loop   emu.LoopMode
		engine string
	}{{emu.LoopFast, emu.EngineFast}, {emu.LoopFused, emu.EngineFused}, {emu.LoopAdaptive, emu.EngineAdaptive}} {
		got := run(tier.loop)
		for i := range got.Programs {
			p := &got.Programs[i]
			if p.BaselineEngine != tier.engine || p.BRMEngine != tier.engine {
				t.Errorf("%s: engines %q/%q, want %q", p.Name, p.BaselineEngine, p.BRMEngine, tier.engine)
			}
			// Fused dispatch runs under the static fused tier always, and
			// under the adaptive tier exactly when the cell promoted
			// mid-run (each Runner compiles fresh programs, so every
			// adaptive cell starts cold).
			fusedBase, fusedBRM := tier.engine == emu.EngineFused, tier.engine == emu.EngineFused
			if tier.engine == emu.EngineAdaptive {
				fusedBase, fusedBRM = p.BaselineRefusion.Promoted, p.BRMRefusion.Promoted
			}
			if (p.BaselineFusion.Blocks > 0) != fusedBase || (p.BRMFusion.Blocks > 0) != fusedBRM {
				t.Errorf("%s: fusion stats %+v/%+v under %q", p.Name, p.BaselineFusion, p.BRMFusion, tier.engine)
			}
			// Stats must match the instrumented reference exactly; the
			// engine, fusion, and refusion fields are the only
			// tier-dependent state.
			p.BaselineEngine, p.BRMEngine = ref.Programs[i].BaselineEngine, ref.Programs[i].BRMEngine
			p.BaselineFusion, p.BRMFusion = ref.Programs[i].BaselineFusion, ref.Programs[i].BRMFusion
			p.BaselineRefusion, p.BRMRefusion = ref.Programs[i].BaselineRefusion, ref.Programs[i].BRMRefusion
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("loop %d: SuiteResult differs from instrumented reference", tier.loop)
		}
		if a, b := renderAll(ref), renderAll(got); a != b {
			t.Errorf("loop %d: rendered tables differ:\n%s\n-- vs --\n%s", tier.loop, a, b)
		}
	}
}

func TestRunnerCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var r Runner
	if _, err := r.Run(ctx, Spec{Workloads: fastSubset, Options: driver.DefaultOptions()}); err == nil {
		t.Fatal("cancelled run succeeded")
	}
}

// TestRunnerFirstErrorAbortsPool injects a workload that fails to compile
// ahead of many good ones: the pool must return that workload's error and
// cancel the remaining jobs instead of draining the queue.
func TestRunnerFirstErrorAbortsPool(t *testing.T) {
	suite := []workloads.Workload{{
		Name:      "broken",
		Source:    `int main(void) { return ; }`,
		NoPrelude: true,
	}}
	suite = append(suite, workloads.All()...)

	var done atomic.Int64
	r := Runner{
		Parallelism: 2,
		Progress:    func(phase string, d, total int) { done.Store(int64(d)) },
	}
	_, err := r.Run(context.Background(), Spec{Suite: suite, Options: driver.DefaultOptions()})
	if err == nil {
		t.Fatal("suite with a broken workload succeeded")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error does not identify the failing workload: %v", err)
	}
	total := int64(len(suite) * 2)
	if got := done.Load(); got >= total {
		t.Errorf("pool drained all %d jobs despite the early failure", got)
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	var r Runner
	_, err := r.Run(context.Background(), Spec{Workloads: []string{"no-such"}, Options: driver.DefaultOptions()})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v, want unknown workload", err)
	}
}

func TestRunnerInvalidOptions(t *testing.T) {
	o := driver.DefaultOptions()
	o.AlignWords = -2
	var r Runner
	if _, err := r.Run(context.Background(), Spec{Workloads: fastSubset, Options: o}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

// TestRunnerSharedCache proves the dedup across experiments: a second run
// through the same Runner recompiles nothing.
func TestRunnerSharedCache(t *testing.T) {
	r := Runner{Parallelism: 4}
	spec := Spec{Workloads: []string{"wc", "sieve"}, Options: driver.DefaultOptions()}
	if _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	first := r.Cache.Stats()
	if first.Misses != 4 { // 2 workloads x 2 machines
		t.Errorf("first run compiled %d programs, want 4", first.Misses)
	}
	if _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	second := r.Cache.Stats()
	if second.Misses != first.Misses {
		t.Errorf("second run recompiled: %d -> %d misses", first.Misses, second.Misses)
	}
	if second.Hits != first.Hits+4 {
		t.Errorf("second run hits = %d, want %d", second.Hits, first.Hits+4)
	}
}

func TestRunnerSingleMachine(t *testing.T) {
	var r Runner
	got, err := r.Run(context.Background(), Spec{
		Workloads: []string{"wc"},
		Machines:  []isa.Kind{isa.BranchReg},
		Options:   driver.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.BRMTotal.Instructions == 0 {
		t.Error("BRM total empty")
	}
	if got.BaselineTotal.Instructions != 0 {
		t.Error("baseline measured despite not being requested")
	}
}

func TestPctDegenerateCells(t *testing.T) {
	if v := pct(0, 0); v != 0 {
		t.Errorf("pct(0,0) = %v, want 0", v)
	}
	if v := pct(7, 0); !math.IsInf(v, 1) {
		t.Errorf("pct(7,0) = %v, want +Inf", v)
	}
	if v := pct(-7, 0); !math.IsInf(v, -1) {
		t.Errorf("pct(-7,0) = %v, want -Inf", v)
	}
	if v := pct(150, 100); v != 50 {
		t.Errorf("pct(150,100) = %v, want 50", v)
	}
	if got := fmtPct(math.Inf(1)); got != "n/a" {
		t.Errorf("fmtPct(+Inf) = %q, want n/a", got)
	}
	if got := fmtPct(-6.82); got != "-6.8%" {
		t.Errorf("fmtPct(-6.82) = %q", got)
	}
	// A degenerate Table I cell renders n/a, not 0.0%.
	r := &SuiteResult{Programs: []ProgramResult{{Name: "degenerate"}}}
	r.Programs[0].BRM.Instructions = 10
	r.BRMTotal.Instructions = 10
	tbl := r.Table1()
	if !strings.Contains(tbl, "n/a") {
		t.Errorf("degenerate cell not marked n/a:\n%s", tbl)
	}
}
