package exp

import (
	"context"
	"strings"
	"testing"

	"branchreg/internal/cache"
	"branchreg/internal/driver"
)

// fastSubset keeps unit tests quick; the full suite runs in the benchmark
// harness and cmd/brbench.
var fastSubset = []string{"wc", "grep", "matmult", "dhrystone", "tinycc"}

// serial is the one-worker reference Runner: the path every parallel
// result must reproduce byte for byte.
func serial() *Runner { return &Runner{Parallelism: 1} }

// runSubset runs the named workloads on both machines with the serial
// Runner and default options.
func runSubset(t *testing.T, names []string) *SuiteResult {
	t.Helper()
	r, err := serial().Run(context.Background(), Spec{Workloads: names, Options: driver.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunSuiteSubset(t *testing.T) {
	r := runSubset(t, fastSubset)
	if len(r.Programs) != len(fastSubset) {
		t.Fatalf("got %d programs", len(r.Programs))
	}
	if r.BaselineTotal.Instructions == 0 || r.BRMTotal.Instructions == 0 {
		t.Fatal("empty totals")
	}
	// The headline shape: the BRM executes fewer instructions but makes at
	// least as many data references.
	if r.InstructionSavings() <= 0 {
		t.Errorf("instruction savings = %.2f%%, want > 0", r.InstructionSavings())
	}
	if r.ExtraDataRefs() < 0 {
		t.Errorf("extra data refs = %.2f%%, want >= 0", r.ExtraDataRefs())
	}
}

func TestTable1Rendering(t *testing.T) {
	r := runSubset(t, []string{"wc", "sieve"})
	tbl := r.Table1()
	for _, want := range []string{"Table I", "wc", "sieve", "TOTAL", "diff%"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table I missing %q:\n%s", want, tbl)
		}
	}
}

func TestCycleEstimates(t *testing.T) {
	r := runSubset(t, fastSubset)
	rows := r.Cycles([]int{3, 4})
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	// The BRM must save cycles, and deeper pipelines must save more
	// (paper: 10.6% at 3 stages, 12.8% at 4).
	if rows[0].SavingsPercent <= 0 {
		t.Errorf("3-stage savings = %.2f%%", rows[0].SavingsPercent)
	}
	if rows[1].SavingsPercent <= rows[0].SavingsPercent {
		t.Errorf("4-stage savings (%.2f%%) should exceed 3-stage (%.2f%%)",
			rows[1].SavingsPercent, rows[0].SavingsPercent)
	}
	if !strings.Contains(r.CycleTable([]int{3, 4}), "savings") {
		t.Error("cycle table missing header")
	}
}

func TestRatios(t *testing.T) {
	r := runSubset(t, fastSubset)
	rt := r.ComputeRatios()
	if rt.TransferPercent < 5 || rt.TransferPercent > 30 {
		t.Errorf("transfer%% = %.2f, expected near the paper's ~14%%", rt.TransferPercent)
	}
	if rt.TransfersPerCalc < 2 {
		t.Errorf("transfers per calc = %.2f, paper reports over 2", rt.TransfersPerCalc)
	}
	if rt.DelayedTransferPct < 0 || rt.DelayedTransferPct > 50 {
		t.Errorf("delayed transfer %% = %.2f", rt.DelayedTransferPct)
	}
	s := r.RatiosTable()
	if !strings.Contains(s, "transfers of control") {
		t.Error("ratios table truncated")
	}
	if !strings.Contains(r.DistanceHistogram(), "pipeline delay") {
		t.Error("histogram missing annotation")
	}
}

func TestCacheStudy(t *testing.T) {
	cfgs := []cache.Config{
		{LineWords: 4, Sets: 16, Assoc: 1, MissPenalty: 8},
		{LineWords: 4, Sets: 8, Assoc: 2, MissPenalty: 8},
	}
	res, err := serial().CacheStudy(context.Background(), driver.DefaultOptions(), cfgs, []string{"wc", "grep"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 { // 2 configs x prefetch on/off
		t.Fatalf("got %d results", len(res))
	}
	// Prefetch must not increase demand misses-at-full-penalty and must
	// reduce total fetch delay for these workloads on small caches.
	for i := 0; i < len(res); i += 2 {
		off, on := res[i], res[i+1]
		if off.Prefetch || !on.Prefetch {
			t.Fatal("result ordering wrong")
		}
		if on.Stats.DelayCycles > off.Stats.DelayCycles {
			t.Errorf("%v: prefetch increased delays: %d -> %d",
				on.Config, off.Stats.DelayCycles, on.Stats.DelayCycles)
		}
		if on.Stats.Prefetches == 0 {
			t.Error("prefetch run issued no prefetches")
		}
	}
	if !strings.Contains(CacheTable(res), "organization") {
		t.Error("cache table header missing")
	}
}

func TestAblations(t *testing.T) {
	res, err := serial().Ablations(context.Background(), []string{"matmult", "wc"})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationResult{}
	for _, r := range res {
		byName[r.Name] = r
	}
	full := byName["full (8 bregs)"]
	noHoist := byName["no hoisting"]
	if full.Instructions == 0 || noHoist.Instructions == 0 {
		t.Fatal("missing variants")
	}
	// Hoisting is the central optimization: disabling it must cost
	// instructions (target calcs return to the loop bodies).
	if noHoist.Instructions <= full.Instructions {
		t.Errorf("no-hoist (%d) should execute more instructions than full (%d)",
			noHoist.Instructions, full.Instructions)
	}
	if noHoist.BrCalcs <= full.BrCalcs {
		t.Errorf("no-hoist should execute more target calcs: %d vs %d",
			noHoist.BrCalcs, full.BrCalcs)
	}
	// Fewer branch registers cannot beat the full configuration.
	if b3 := byName["3 branch registers"]; b3.Instructions < full.Instructions {
		t.Errorf("3 bregs (%d insts) beats 8 bregs (%d)", b3.Instructions, full.Instructions)
	}
	if !strings.Contains(AblationTable(res), "variant") {
		t.Error("ablation table header missing")
	}
}

func TestNames(t *testing.T) {
	n := Names()
	if len(n) != 19 {
		t.Errorf("names = %d", len(n))
	}
}
