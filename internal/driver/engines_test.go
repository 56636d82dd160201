package driver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// Driver-level golden differential: the full workload suite and a sweep of
// generated programs must produce identical Results from every engine tier
// — the instrumented Step loop, the predecoded fast loop, a profiled
// request (which runs on the instrumented loop whatever its Loop), and
// the block-fused loop — and the pooled-memory runner must stay correct
// under concurrency (run with -race via `make check`).

// engineTiers is the driver-level tier table; the instrumented loop is
// the reference the others must reproduce byte for byte.
var engineTiers = []struct {
	name   string
	loop   emu.LoopMode
	prof   bool
	engine string
}{
	{"step", emu.LoopInstrumented, false, emu.EngineInstrumented},
	{"fast", emu.LoopFast, false, emu.EngineFast},
	{"profiled", emu.LoopFast, true, emu.EngineInstrumented},
	{"fused", emu.LoopFused, false, emu.EngineFused},
}

// eqResult compares two Results ignoring Timing, which records wall
// clock and is never deterministic.
func eqResult(a, b Result) bool {
	a.Timing, b.Timing = Timing{}, Timing{}
	return reflect.DeepEqual(a, b)
}

// runAllEngines executes p under every engine tier and fails on any
// divergence, returning the (shared) result (nil if the program traps).
func runAllEngines(t *testing.T, p *isa.Program, input string) *Result {
	t.Helper()
	req := func(tier int) Request {
		r := Request{Program: p, Input: input, Loop: engineTiers[tier].loop}
		if engineTiers[tier].prof {
			r.Profile = emu.NewBlockProfile(len(p.Text))
		}
		return r
	}
	inst, ierr := Exec(context.Background(), req(0))
	for i := 1; i < len(engineTiers); i++ {
		tier := engineTiers[i]
		res, err := Exec(context.Background(), req(i))
		if (err == nil) != (ierr == nil) {
			t.Fatalf("error divergence: %s=%v instrumented=%v", tier.name, err, ierr)
		}
		if err != nil {
			var ft, it *emu.Trap
			if errors.As(err, &ft) != errors.As(ierr, &it) || (ft != nil && !reflect.DeepEqual(*ft, *it)) {
				t.Fatalf("trap divergence: %s=%v instrumented=%v", tier.name, err, ierr)
			}
			continue
		}
		if res.Engine != tier.engine || inst.Engine != emu.EngineInstrumented {
			t.Fatalf("engine recording wrong: %s=%q inst=%q", tier.name, res.Engine, inst.Engine)
		}
		if tier.engine == emu.EngineFused && res.Fusion.Blocks == 0 {
			t.Fatalf("%s: fused run recorded no blocks", tier.name)
		}
		instEq := *inst
		instEq.Engine = res.Engine // only the engine name
		instEq.Fusion = res.Fusion // and the tier-descriptive counters may differ
		if !eqResult(*res, instEq) {
			t.Fatalf("result divergence:\n %s: %+v\n step: %+v", tier.name, res, inst)
		}
	}
	if ierr != nil {
		return nil
	}
	return inst
}

func TestEnginesWorkloadDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential is not short")
	}
	o := DefaultOptions()
	for _, w := range workloads.All() {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			w, kind := w, kind
			t.Run(fmt.Sprintf("%s/%v", w.Name, kind), func(t *testing.T) {
				t.Parallel()
				p, err := Compile(context.Background(), w.FullSource(), kind, o)
				if err != nil {
					t.Fatal(err)
				}
				runAllEngines(t, p, w.Input)
			})
		}
	}
}

func TestEnginesGeneratedProgramDifferential(t *testing.T) {
	// The same generator that seeds the native fuzz targets, swept over a
	// fixed set of seeds as a deterministic regression net.
	o := DefaultOptions()
	for seed := int64(0); seed < 25; seed++ {
		gen := &progGen{r: rand.New(rand.NewSource(seed))}
		src := gen.generate()
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(context.Background(), src, kind, o)
			if err != nil {
				t.Fatalf("seed %d %v: %v\nprogram:\n%s", seed, kind, err, src)
			}
			if runAllEngines(t, p, "") == nil {
				t.Fatalf("seed %d %v: generated program trapped\nprogram:\n%s", seed, kind, src)
			}
		}
	}
}

func TestMemPoolConcurrentRunners(t *testing.T) {
	// Pooled memory buffers are recycled across runs; concurrent runners
	// must never observe another run's writes (buffers are zeroed on
	// release) or race on the pool. Meaningful under -race.
	names := []string{"sieve", "wc", "tinycc"}
	type cell struct {
		p     *isa.Program
		input string
		want  Result
	}
	var cells []cell
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(context.Background(), w.FullSource(), kind, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Exec(context.Background(), Request{Program: p, Input: w.Input, OutputHint: w.OutputHint})
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{p: p, input: w.Input, want: *ref})
		}
	}
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := cells[(g+i)%len(cells)]
				res, err := Exec(context.Background(), Request{Program: c.p, Input: c.input})
				if err != nil {
					errs <- err
					return
				}
				if !eqResult(*res, c.want) {
					errs <- fmt.Errorf("pooled run diverged for %s", c.p.Kind)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRunConfigOutputHintHarmless(t *testing.T) {
	// A wildly wrong hint must never change results.
	w, _ := workloads.ByName("wc")
	p, err := Compile(context.Background(), w.FullSource(), isa.Baseline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Exec(context.Background(), Request{Program: p, Input: w.Input})
	if err != nil {
		t.Fatal(err)
	}
	for _, hint := range []int{-5, 0, 1, 1 << 20} {
		res, err := Exec(context.Background(), Request{Program: p, Input: w.Input, OutputHint: hint})
		if err != nil {
			t.Fatal(err)
		}
		if !eqResult(*res, *ref) {
			t.Errorf("hint %d changed the result", hint)
		}
	}
}
