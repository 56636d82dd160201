package driver

import (
	"context"
	"runtime"
	"testing"

	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// The ceilings bound the heap allocations of one pass of driver.Compile
// over the 19 suite workloads on both machines, counted and in bytes:
// 118,895 allocations and 20,813,264 bytes, measured once Link wrote
// flat 12-byte records and no per-instruction function names, plus 10%.
// A pass that goes back to per-block or per-instruction scratch fails
// the count; a record that grows fails the bytes. Run without -race
// (`make alloc-gate`); the detector's instrumentation allocates on its
// own.
const (
	compileAllocCeiling      = 130800
	compileAllocBytesCeiling = 22895000
)

func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run via make alloc-gate")
	}
	o := DefaultOptions()
	var srcs []string
	for _, w := range workloads.All() {
		srcs = append(srcs, w.FullSource())
	}
	ctx := context.Background()
	pass := func() {
		for _, src := range srcs {
			for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
				if _, err := Compile(ctx, src, kind, o); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// As testing.AllocsPerRun: one CPU, a warm-up pass, then the mean.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d workloads x 2 machines: %d allocations, %d bytes per pass (ceilings %d, %d)",
		len(srcs), allocs, bytes, compileAllocCeiling, compileAllocBytesCeiling)
	if allocs > compileAllocCeiling {
		t.Errorf("compile allocations %d per pass, ceiling %d", allocs, compileAllocCeiling)
	}
	if bytes > compileAllocBytesCeiling {
		t.Errorf("compile bytes %d per pass, ceiling %d", bytes, compileAllocBytesCeiling)
	}
}

// suiteRetainedCeiling bounds what the 38 linked suite programs retain
// (isa.Program.RetainedBytes summed over the 19 workloads on both
// machines): the flat text, the data images and the function tables
// measured 565,278 bytes, plus 10%.
const suiteRetainedCeiling = 621806

// TestSuiteRetainedBytes bounds what a compile cache is charged for the
// suite, so a linked program that takes symbolic state back fails here.
func TestSuiteRetainedBytes(t *testing.T) {
	ctx := context.Background()
	o := DefaultOptions()
	var sum, insts, data int64
	for _, w := range workloads.All() {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(ctx, w.FullSource(), kind, o)
			if err != nil {
				t.Fatal(err)
			}
			sum += p.RetainedBytes()
			insts += int64(len(p.Text))
			data += int64(len(p.DataImage))
		}
	}
	t.Logf("38 programs: %d instructions, %d data bytes, %d bytes retained (ceiling %d)",
		insts, data, sum, suiteRetainedCeiling)
	if sum > suiteRetainedCeiling {
		t.Errorf("suite programs retain %d bytes, ceiling %d", sum, suiteRetainedCeiling)
	}
}
