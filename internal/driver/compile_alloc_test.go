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
// 119,083 allocations and 25,774,378 bytes, measured once the opt passes
// kept their per-register state in versioned tables and the instruction
// and token records were narrowed, plus 10%. A pass that goes back to
// per-block or per-instruction scratch fails the count; a record that
// grows fails the bytes. Run without -race (`make alloc-gate`); the
// detector's instrumentation allocates on its own.
const (
	compileAllocCeiling      = 131000
	compileAllocBytesCeiling = 28352000
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
