package driver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/obs"
)

// Request is the one description of a compile-and-run job that every
// consumer of the driver — the experiment runner, the command-line
// tools, and the brserve service — speaks. Exec and Cache.Exec take a
// Request and return a Result; they are the driver's only run entry
// points.
type Request struct {
	// Source is the MC program to compile for Kind. Ignored when Program
	// is set.
	Source string
	// Program short-circuits compilation: a pre-linked program to execute
	// as-is. Linked programs are read-only to the emulator, so one
	// Program may appear in many concurrent Requests.
	Program *isa.Program
	// Kind selects the target machine (isa.Baseline or isa.BranchReg).
	// Ignored when Program is set (the program was already generated for
	// its machine).
	Kind isa.Kind
	// Input is the program's stdin.
	Input string
	// Options configures the compilation pipeline. Ignored when Program
	// is set.
	Options Options
	// Faults is an optional deterministic fault-injection plan, armed on
	// this execution only.
	Faults *emu.FaultPlan
	// Loop selects the emulator engine; the zero value (emu.LoopAuto)
	// picks the block-fused loop whenever hooks and faults permit.
	Loop emu.LoopMode
	// OutputHint pre-sizes the emulator's output buffer to the number of
	// bytes the program is expected to write (0 = no hint). It affects
	// only allocation, never output, so Fingerprint excludes it.
	OutputHint int
	// MaxInstructions bounds the run's instruction count (0 = the
	// emulator's default budget). Exceeding it surfaces as a
	// TrapStepBudget *emu.Trap carrying the limit and the executed
	// count — the sandboxing contract brserve's per-tenant budgets
	// build on.
	MaxInstructions int64
	// Profile, when set, receives the run's flow counts (see
	// emu.BlockProfile). Must be sized for the program's Text; a profiled
	// run executes on the instrumented loop whatever Loop says
	// (Result.Engine "instrumented").
	Profile *emu.BlockProfile
}

// Validate rejects requests the driver cannot honor.
func (r *Request) Validate() error {
	if r.Program == nil {
		if r.Source == "" {
			return fmt.Errorf("driver: request has neither Source nor Program")
		}
		if err := r.Options.Validate(); err != nil {
			return err
		}
	}
	if r.MaxInstructions < 0 {
		return fmt.Errorf("driver: MaxInstructions must be >= 0, got %d", r.MaxInstructions)
	}
	return nil
}

// Fingerprint returns a deterministic encoding of every Request field
// that can affect the Result — source, machine, input, compile options,
// engine selection, step budget, and any armed fault plan. Two Requests
// with equal fingerprints are interchangeable, which is exactly the
// coalescing contract brserve relies on: requests that differ only in
// OutputHint (an allocation hint) share a fingerprint, while requests
// that differ in Loop (engine metadata in the Result) or Faults (trap
// behavior) never do. A Request carrying a Program fingerprints the
// program's content (isa.Program.Digest), so equal programs compiled
// apart share a fingerprint and a freed program's recycled address can
// never alias another's. A Request carrying a Profile fingerprints the
// pointer itself, so such requests only ever coalesce with requests
// sharing the same profile object.
func (r *Request) Fingerprint() string {
	src := sha256.Sum256([]byte(r.Source))
	in := sha256.Sum256([]byte(r.Input))
	fp := fmt.Sprintf("src=%s|kind=%d|in=%s|%s|loop=%d|max=%d",
		hex.EncodeToString(src[:]), r.Kind, hex.EncodeToString(in[:]),
		r.Options.Fingerprint(), r.Loop, r.MaxInstructions)
	if r.Program != nil {
		d := r.Program.Digest()
		fp += "|prog=" + hex.EncodeToString(d[:])
	}
	if r.Faults != nil {
		fp += fmt.Sprintf("|faults=%+v", *r.Faults)
	}
	if r.Profile != nil {
		fp += fmt.Sprintf("|prof=%p", r.Profile)
	}
	return fp
}

// Timing is where a Result's wall clock went, in nanoseconds.
type Timing struct {
	CompileNS int64 `json:"compile_ns"`
	RunNS     int64 `json:"run_ns"`
}

// Exec compiles (unless the Request carries a pre-linked Program) and
// executes one Request. Emulator faults surface as *emu.Trap values
// reachable with errors.As; the Result records which engine ran, its
// fusion behavior, and per-phase timings.
func Exec(ctx context.Context, req Request) (*Result, error) {
	return exec(ctx, req, func(ctx context.Context) (*isa.Program, error) {
		return Compile(ctx, req.Source, req.Kind, req.Options)
	})
}

// Exec is driver.Exec with compilation memoized through the cache:
// concurrent Requests for the same (source, machine, options) block on a
// single compilation. Execution itself is never memoized here; every
// Request runs (brserve's admission memo is the attached ResultCache,
// which Exec does not consult).
func (c *Cache) Exec(ctx context.Context, req Request) (*Result, error) {
	var e *cacheEntry
	res, err := exec(ctx, req, func(ctx context.Context) (*isa.Program, error) {
		var err error
		if e, err = c.entry(ctx, req.Source, req.Kind, req.Options); err != nil {
			return nil, err
		}
		return e.p, e.err
	})
	if e != nil {
		c.recharge(e)
	}
	return res, err
}

// exec is the shared Exec body, parameterized over how a missing
// Program is compiled. When the context carries a request trace (a
// brserve request), the compile and run phases record spans into it;
// outside a traced request the spans are nil and cost nothing.
func exec(ctx context.Context, req Request, compile func(context.Context) (*isa.Program, error)) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	p := req.Program
	var compileNS int64
	if p == nil {
		sp, cctx := obs.StartSpan(ctx, "compile", "driver")
		start := time.Now()
		var err error
		p, err = compile(cctx)
		compileNS = time.Since(start).Nanoseconds()
		if err != nil {
			sp.SetArg("error", err.Error())
			sp.End()
			return nil, err
		}
		sp.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, _ := obs.StartSpan(ctx, "run", "driver")
	res, err := execute(ctx, p, &req)
	if err != nil {
		sp.SetArg("error", err.Error())
		sp.End()
		return nil, err
	}
	sp.SetArg("engine", res.Engine)
	sp.SetArg("instructions", strconv.FormatInt(res.Stats.Instructions, 10))
	sp.End()
	res.Timing.CompileNS = compileNS
	return res, nil
}
