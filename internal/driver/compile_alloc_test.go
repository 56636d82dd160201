package driver

import (
	"context"
	"testing"

	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// compileAllocCeiling bounds the heap allocations of one pass of
// driver.Compile over the 19 suite workloads on both machines: 124,363
// measured once the compile path stopped allocating what it throws away
// (in-place opt passes, one liveness arena per analysis, emission
// buffers that keep their capacity, presized link and token slices),
// plus 10%. Before that a pass took 344,472. A pass or analysis that
// goes back to per-block or per-instruction scratch fails here. Run
// without -race (`make alloc-gate`); the detector's instrumentation
// allocates on its own.
const compileAllocCeiling = 136800

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
	allocs := testing.AllocsPerRun(3, func() {
		for _, src := range srcs {
			for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
				if _, err := Compile(ctx, src, kind, o); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	t.Logf("%d workloads x 2 machines: %.0f allocations per pass (ceiling %d)", len(srcs), allocs, compileAllocCeiling)
	if allocs > compileAllocCeiling {
		t.Errorf("compile allocations %.0f per pass, ceiling %d", allocs, compileAllocCeiling)
	}
}
