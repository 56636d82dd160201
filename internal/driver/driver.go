// Package driver ties the tool chain together: MC source → front end →
// IR → optimizer → code generator → linked program for either machine,
// plus a convenience runner that executes a program under the emulator
// and a concurrency-safe compile cache (see cache.go) that memoizes
// linked programs across experiments.
package driver

import (
	"context"
	"fmt"
	"time"

	"branchreg/internal/codegen"
	"branchreg/internal/core"
	"branchreg/internal/emu"
	"branchreg/internal/ir"
	"branchreg/internal/irgen"
	"branchreg/internal/isa"
	"branchreg/internal/mc"
	"branchreg/internal/opt"
)

// Options selects the compilation pipeline's behavior.
type Options struct {
	Opt opt.Options // machine-independent optimization passes
	BRM core.Config // branch-register machine configuration
	// AlignWords > 1 aligns function entries to that many instruction
	// words (the paper's §9 cache-line alignment suggestion).
	AlignWords int
}

// DefaultOptions enables everything, matching the paper's configuration.
func DefaultOptions() Options {
	return Options{Opt: opt.Default, BRM: core.DefaultConfig}
}

// Validate rejects option combinations the tool chain cannot honor.
// Compile and Run call it, so nonsense (a negative alignment, an
// unimplementable branch-register count) fails with a clear error instead
// of silently linking a meaningless program.
func (o Options) Validate() error {
	if o.AlignWords < 0 {
		return fmt.Errorf("driver: AlignWords must be >= 0, got %d", o.AlignWords)
	}
	if o.BRM.BranchRegs < 2 || o.BRM.BranchRegs > 8 {
		return fmt.Errorf("driver: BranchRegs must be in [2,8] (b[0] and the RA register are reserved), got %d",
			o.BRM.BranchRegs)
	}
	return nil
}

// Fingerprint returns a deterministic encoding of every option that
// affects generated code. It is the options component of the compile
// cache key, so any new Options field must surface here.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("opt{f=%t cp=%t cse=%t dce=%t s=%t licm=%t}|brm{h=%t rn=%t sch=%t n=%d fc=%t}|align=%d",
		o.Opt.Fold, o.Opt.CopyProp, o.Opt.CSE, o.Opt.DCE, o.Opt.Simplify, o.Opt.LICM,
		o.BRM.Hoist, o.BRM.ReplaceNoops, o.BRM.Schedule, o.BRM.BranchRegs, o.BRM.FastCompare,
		o.AlignWords)
}

// Lower runs the front end and machine-independent passes.
func Lower(src string, o Options) (*ir.Unit, error) {
	u, err := mc.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("front end: %w", err)
	}
	iu, err := irgen.Lower(u)
	if err != nil {
		return nil, fmt.Errorf("irgen: %w", err)
	}
	if err := opt.RunUnit(iu, o.Opt); err != nil {
		return nil, err
	}
	return iu, nil
}

// Compile compiles MC source for the given machine. The context is
// checked between pipeline phases, so a cancelled experiment stops
// without paying for code generation it no longer needs.
func Compile(ctx context.Context, src string, kind isa.Kind, o Options) (*isa.Program, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		mCompiles.Inc()
		mCompileNS.Observe(time.Since(start).Nanoseconds())
	}()
	iu, err := Lower(src, o)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return CompileIR(iu, kind, o)
}

// CompileIR generates code for an already-lowered unit.
func CompileIR(u *ir.Unit, kind isa.Kind, o Options) (*isa.Program, error) {
	var p *isa.Program
	var err error
	if kind == isa.Baseline {
		p, err = codegen.GenBaseline(u)
	} else {
		p, err = core.GenBranchReg(u, o.BRM)
	}
	if err != nil {
		return nil, err
	}
	if o.AlignWords > 1 {
		p.AlignWords = o.AlignWords
		if err := p.Link(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Result is the outcome of running a program under the emulator.
type Result struct {
	Output string
	Status int32
	Stats  emu.Stats
	// Engine names the emulator loop that actually executed the run
	// (emu.EngineFused, emu.EngineFast, or emu.EngineInstrumented) —
	// recorded explicitly because LoopAuto's engine selection is otherwise
	// invisible to callers.
	Engine string
	// Fusion describes the block-fused engine's dynamic behavior (blocks
	// entered, superinstructions retired, hand-offs to the fast loop).
	// Zero unless Engine is emu.EngineFused or emu.EngineAdaptive.
	Fusion emu.FusionStats
	// Refusion describes what the adaptive tier did for this run: whether
	// it executed the program's fused form. Zero unless Engine is
	// emu.EngineAdaptive.
	Refusion emu.RefusionStats
	// Timing is where the request's wall clock went: compile (zero for
	// pre-linked programs and compile-cache hits served without waiting)
	// and emulation.
	Timing Timing
	// FallbackFrom lists the engine tiers that faulted before Engine
	// served the request, in the order they were tried, and Rerouted
	// marks a request whose preferred tier was skipped because its
	// circuit breaker was open. Only the guard supervisor sets them.
	FallbackFrom []string
	Rerouted     bool
}
