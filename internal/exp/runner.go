package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"branchreg/internal/cache"
	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/obs"
	"branchreg/internal/pipeline"
	"branchreg/internal/workloads"
)

// Spec selects what Runner.Run measures: which workloads, on which
// machines, compiled how, with how much parallelism.
type Spec struct {
	// Workloads filters the suite by name (nil = every workload).
	Workloads []string
	// Suite is the workload set the filter applies to (nil =
	// workloads.All()). Tests inject synthetic workloads here.
	Suite []workloads.Workload
	// Machines is the machine set (nil = baseline and BRM). Output
	// agreement is verified only when both machines are present.
	Machines []isa.Kind
	// Options configures the compiler for every job.
	Options driver.Options
	// Parallelism overrides the Runner's worker count when > 0.
	Parallelism int
	// KeepGoing records failed (workload, machine) cells as structured
	// JobErrors in the SuiteResult and completes the rest of the suite,
	// instead of the default first-error-cancels behavior.
	KeepGoing bool
	// Faults maps "<workload>/<machine label>" (e.g. "wc/BRM") to a
	// deterministic fault plan armed on that cell's emulator.
	Faults map[string]*emu.FaultPlan
	// Profile attaches a block profile to every suite run and aggregates
	// the result into per-program hot-block tables (ProgramResult.*Blocks).
	// Profiled runs stay on the fast-path engines; see emu.BlockProfile.
	Profile bool
	// Loop selects the emulator engine for every suite cell; the zero
	// value (emu.LoopAuto) picks the block-fused loop whenever hooks and
	// faults permit. Cells with an armed fault plan must leave this at
	// LoopAuto (the fast-path engines reject fault plans).
	Loop emu.LoopMode
}

// FaultKey builds a Spec.Faults key from a workload name and machine.
func FaultKey(workload string, kind isa.Kind) string {
	return workload + "/" + machineLabel(kind)
}

// Runner executes experiment jobs over a bounded worker pool, memoizing
// compilations in a shared cache. The zero value is ready to use: it
// compiles through a private cache with GOMAXPROCS workers. Results are
// merged in deterministic workload order, so a Runner's output is
// byte-identical to the serial path regardless of parallelism.
type Runner struct {
	// Cache memoizes compilations across every experiment run through
	// this Runner (nil = a private cache, created on first use).
	Cache *driver.Cache
	// Parallelism bounds the worker pool (<= 0 = runtime.GOMAXPROCS(0)).
	Parallelism int
	// JobTimeout bounds each pool job's wall clock (0 = none). The
	// deadline is polled inside the emulator, so even a diverging
	// program surfaces as a timeout failure instead of hanging the pool.
	JobTimeout time.Duration
	// Progress, when set, observes job completions: phase names the
	// experiment, done/total count jobs. Called from worker goroutines.
	Progress func(phase string, done, total int)
	// Tracer, when set, records spans for every phase, suite cell,
	// compile, run and oracle check (nil = no tracing; see obs.Tracer).
	Tracer *obs.Tracer

	cacheOnce sync.Once
}

func (r *Runner) cache() *driver.Cache {
	r.cacheOnce.Do(func() {
		if r.Cache == nil {
			r.Cache = driver.NewCache()
		}
	})
	return r.Cache
}

func (r *Runner) workers(override int) int {
	n := r.Parallelism
	if override > 0 {
		n = override
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// safeJob runs one pool job with the runner's per-job timeout applied
// and panics converted into structured *PanicError failures, so a
// compiler or emulator bug fails one job instead of the process.
func (r *Runner) safeJob(ctx context.Context, i int, job func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}
		}
	}()
	if r.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.JobTimeout)
		defer cancel()
	}
	return job(ctx, i)
}

// runJobs fans total jobs out over n workers. The first job error (lowest
// job index, for determinism) cancels the pool; later workers stop before
// starting their next job. Cancellation fallout from jobs that were
// already in flight when the pool aborted is never reported as the cause.
func (r *Runner) runJobs(parent context.Context, phase string, n, total int, job func(ctx context.Context, i int) error) error {
	if err := parent.Err(); err != nil {
		return err
	}
	if n > total {
		n = total
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
		done     int
	)
	// enq carries the time the producer offered the job, so the receiving
	// worker can observe how long the job waited for a free worker.
	type queued struct {
		i   int
		enq time.Time
	}
	poolStart := time.Now()
	mPoolSize.Set(int64(n))
	jobs := make(chan queued)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Worker index rides the context so trace spans opened inside
			// jobs land on per-worker timeline rows (1-based; 0 = no pool).
			wctx := obs.ContextWithWorker(ctx, worker+1)
			for q := range jobs {
				if ctx.Err() != nil {
					return
				}
				i := q.i
				mJobs.Inc()
				mJobWaitNS.Observe(time.Since(q.enq).Nanoseconds())
				jobStart := time.Now()
				err := r.safeJob(wctx, i, job)
				busy := time.Since(jobStart).Nanoseconds()
				mJobRunNS.Observe(busy)
				mWorkerBusy.Add(busy)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						mu.Lock()
						if firstErr == nil || i < firstIdx {
							firstErr, firstIdx = err, i
						}
						mu.Unlock()
					}
					cancel()
					return
				}
				mu.Lock()
				done++
				d := done
				mu.Unlock()
				if r.Progress != nil {
					r.Progress(phase, d, total)
				}
			}
		}(w)
	}
	for i := 0; i < total; i++ {
		select {
		case jobs <- queued{i: i, enq: time.Now()}:
		case <-ctx.Done():
			i = total
		}
	}
	close(jobs)
	wg.Wait()
	// Occupancy denominator: pool wall clock × workers. Worker-busy over
	// this is the pool's utilization.
	mPoolWall.Add(time.Since(poolStart).Nanoseconds() * int64(n))
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}

// selectWorkloads resolves a Spec's workload set in deterministic suite
// order, rejecting unknown names.
func selectWorkloads(suite []workloads.Workload, names []string) ([]workloads.Workload, error) {
	if suite == nil {
		suite = workloads.All()
	}
	if names == nil {
		return suite, nil
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []workloads.Workload
	for _, w := range suite {
		if want[w.Name] {
			out = append(out, w)
			delete(want, w.Name)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("exp: unknown workload %s", n)
	}
	return out, nil
}

func machineLabel(kind isa.Kind) string {
	if kind == isa.Baseline {
		return "baseline"
	}
	return "BRM"
}

// suiteCell is one (workload, machine) outcome: a result or a
// structured failure (keep-going mode only), plus the hot-block
// aggregation when the spec asked for profiling.
type suiteCell struct {
	res    *driver.Result
	blocks []obs.HotBlock
	err    *JobError
}

// Run executes the suite described by spec: every (workload, machine)
// pair becomes one pool job, per-program results are merged in suite
// order, and when both machines are present their outputs must agree
// (the differential oracle). By default the first failure cancels the
// pool; with Spec.KeepGoing each failed cell degrades to a typed
// JobError in the SuiteResult while the rest of the suite completes.
func (r *Runner) Run(ctx context.Context, spec Spec) (*SuiteResult, error) {
	if err := spec.Options.Validate(); err != nil {
		return nil, err
	}
	sel, err := selectWorkloads(spec.Suite, spec.Workloads)
	if err != nil {
		return nil, err
	}
	machines := spec.Machines
	if machines == nil {
		machines = []isa.Kind{isa.Baseline, isa.BranchReg}
	}

	// work runs one cell, reporting whether it got past compilation so
	// failures classify as compile vs run. Cell/compile/run spans parent
	// under the enclosing phase span and land on the worker's trace row.
	work := func(ctx context.Context, i int) (res *driver.Result, blocks []obs.HotBlock, compiled bool, err error) {
		w := sel[i/len(machines)]
		kind := machines[i%len(machines)]
		tid := obs.WorkerFromContext(ctx)
		cell := r.Tracer.Begin("cell:"+FaultKey(w.Name, kind), "suite", obs.SpanFromContext(ctx), tid)
		defer cell.End()

		cs := r.Tracer.Begin("compile", "driver", cell.ID(), tid)
		p, err := r.cache().Compile(ctx, w.FullSource(), kind, spec.Options)
		cs.End()
		if err != nil {
			return nil, nil, false, err
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, true, err
		}
		var prof *emu.BlockProfile
		if spec.Profile {
			prof = emu.NewBlockProfile(len(p.Text))
		}
		rs := r.Tracer.Begin("run", "emu", cell.ID(), tid)
		res, err = driver.Exec(ctx, driver.Request{
			Program:    p,
			Input:      w.Input,
			Faults:     spec.Faults[FaultKey(w.Name, kind)],
			OutputHint: w.OutputHint,
			Profile:    prof,
			Loop:       spec.Loop,
		})
		if res != nil {
			rs.SetArg("engine", res.Engine)
			cell.SetArg("engine", res.Engine)
		}
		rs.End()
		if err == nil && prof != nil {
			blocks = obs.HotBlocks(p, prof, hotBlockTop)
		}
		return res, blocks, true, err
	}

	cells := make([]suiteCell, len(sel)*len(machines))
	job := func(ctx context.Context, i int) error {
		res, blocks, _, err := work(ctx, i)
		if err != nil {
			w := sel[i/len(machines)]
			return fmt.Errorf("exp: %s on %s: %w", w.Name, machineLabel(machines[i%len(machines)]), err)
		}
		cells[i].res = res
		cells[i].blocks = blocks
		return nil
	}
	if spec.KeepGoing {
		job = func(ctx context.Context, i int) error {
			res, blocks, compiled, err := func() (res *driver.Result, blocks []obs.HotBlock, compiled bool, err error) {
				// Recover locally so a panicking cell degrades like any
				// other failure instead of cancelling the pool.
				defer func() {
					if p := recover(); p != nil {
						err = &PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}
					}
				}()
				return work(ctx, i)
			}()
			switch {
			case err == nil:
				cells[i].res = res
				cells[i].blocks = blocks
			case errors.Is(err, context.Canceled):
				return err // external cancellation, not a cell failure
			default:
				w := sel[i/len(machines)]
				cells[i].err = newJobError("suite", w.Name,
					machineLabel(machines[i%len(machines)]), compiled, err)
			}
			return nil
		}
	}
	if err := r.runJobs(ctx, "suite", r.workers(spec.Parallelism), len(cells), job); err != nil {
		return nil, err
	}

	// Deterministic merge: suite order, verifying machine agreement.
	oracle := r.Tracer.Begin("oracle", "exp", obs.SpanFromContext(ctx), 0)
	defer oracle.End()
	out := &SuiteResult{}
	for wi, w := range sel {
		pr := ProgramResult{Name: w.Name}
		var first *driver.Result
		for mi, kind := range machines {
			cell := cells[wi*len(machines)+mi]
			if cell.err != nil {
				pr.setCellError(kind, cell.err)
				out.Failures = append(out.Failures, cell.err)
				continue
			}
			res := cell.res
			if first == nil {
				first = res
			} else if res.Output != first.Output || res.Status != first.Status {
				je := &JobError{
					Phase:    "suite",
					Workload: w.Name,
					Kind:     FailOracle,
					Message: fmt.Sprintf("machines disagree: %s status %d vs %s status %d",
						machineLabel(machines[0]), first.Status, machineLabel(kind), res.Status),
				}
				if !spec.KeepGoing {
					return nil, je
				}
				pr.OracleErr = je
				out.Failures = append(out.Failures, je)
			}
			switch kind {
			case isa.Baseline:
				pr.Baseline = res.Stats
				pr.BaselineEngine = res.Engine
				pr.BaselineFusion = res.Fusion
				pr.BaselineRefusion = res.Refusion
				pr.BaselineBlocks = cell.blocks
				out.BaselineTotal.Add(&res.Stats)
			default:
				pr.BRM = res.Stats
				pr.BRMEngine = res.Engine
				pr.BRMFusion = res.Fusion
				pr.BRMRefusion = res.Refusion
				pr.BRMBlocks = cell.blocks
				out.BRMTotal.Add(&res.Stats)
			}
		}
		out.Programs = append(out.Programs, pr)
	}
	return out, nil
}

// hotBlockTop bounds the per-cell hot-block aggregation: enough to show
// where a workload spends its time, small enough to keep reports
// readable (sieve has under ten live blocks; tinycc has hundreds).
const hotBlockTop = 10

// CacheStudy executes the named workloads (nil = a representative
// subset) on the BRM against each cache configuration, with and without
// prefetch-on-assignment, returning delay cycles and pollution per
// configuration. Every (configuration, prefetch, workload) triple is one
// pool job, merged per configuration in workload order.
func (r *Runner) CacheStudy(ctx context.Context, o driver.Options, cfgs []cache.Config, names []string) ([]CacheResult, error) {
	if names == nil {
		names = []string{"dhrystone", "matmult", "grep", "sort", "tinycc"}
	}
	sel, err := selectWorkloads(nil, names)
	if err != nil {
		return nil, err
	}
	modes := []bool{false, true}
	type cell struct{ stats cache.Stats }
	cells := make([]cell, len(cfgs)*len(modes)*len(sel))
	err = r.runJobs(ctx, "cache study", r.workers(0), len(cells),
		func(ctx context.Context, i int) error {
			cfg := cfgs[i/(len(modes)*len(sel))]
			pre := modes[(i/len(sel))%len(modes)]
			w := sel[i%len(sel)]
			st, err := r.cachedRunWithICache(ctx, w, o, cfg, pre)
			if err != nil {
				return err
			}
			cells[i].stats = st
			return nil
		})
	if err != nil {
		return nil, err
	}
	var out []CacheResult
	for ci, cfg := range cfgs {
		for mi, pre := range modes {
			total := cache.Stats{}
			for wi := range sel {
				addCache(&total, &cells[(ci*len(modes)+mi)*len(sel)+wi].stats)
			}
			out = append(out, CacheResult{Config: cfg, Prefetch: pre, Stats: total})
		}
	}
	return out, nil
}

// cachedRunWithICache compiles w for the BRM through the compile cache
// and emulates it against one instruction-cache configuration.
func (r *Runner) cachedRunWithICache(ctx context.Context, w workloads.Workload, o driver.Options, cfg cache.Config, prefetch bool) (cache.Stats, error) {
	p, err := r.cache().Compile(ctx, w.FullSource(), isa.BranchReg, o)
	if err != nil {
		return cache.Stats{}, err
	}
	m, err := emu.New(p, w.Input)
	if err != nil {
		return cache.Stats{}, err
	}
	ic := cache.New(cfg)
	m.Hooks.Fetch = func(addr int32) { ic.Fetch(addr) }
	if prefetch {
		m.Hooks.Prefetch = func(addr int32) { ic.Prefetch(addr) }
	}
	if _, err := m.Run(); err != nil {
		return cache.Stats{}, err
	}
	ic.Flush()
	return ic.Stats, nil
}

// Ablations measures the paper's §9 design alternatives: each
// optimization disabled, and fewer branch registers. Every (variant,
// workload) pair is one pool job, merged per variant in workload order.
func (r *Runner) Ablations(ctx context.Context, names []string) ([]AblationResult, error) {
	sel, err := selectWorkloads(nil, names)
	if err != nil {
		return nil, err
	}
	variants := ablationVariants()
	stats := make([]emu.Stats, len(variants)*len(sel))
	err = r.runJobs(ctx, "ablations", r.workers(0), len(stats),
		func(ctx context.Context, i int) error {
			vr := variants[i/len(sel)]
			w := sel[i%len(sel)]
			res, err := r.cache().Exec(ctx, driver.Request{
				Source: w.FullSource(), Kind: isa.BranchReg, Input: w.Input, Options: vr.o})
			if err != nil {
				return fmt.Errorf("exp: %s under %s: %w", w.Name, vr.name, err)
			}
			stats[i] = res.Stats
			return nil
		})
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	m3 := pipeline.Model{Stages: 3}
	for vi, vr := range variants {
		var total emu.Stats
		for wi := range sel {
			total.Add(&stats[vi*len(sel)+wi])
		}
		out = append(out, AblationResult{
			Name:         vr.name,
			Instructions: total.Instructions,
			DataRefs:     total.DataRefs(),
			Cycles3:      m3.BRMCycles(&total),
			BrCalcs:      total.BrCalcs,
			Noops:        total.Noops,
		})
	}
	return out, nil
}

// ModelValidation runs the analytic cycle model and the dynamic pipeline
// simulation side by side. The paper's model charges every executed
// transfer on the baseline machine (taken or not); the simulation charges
// only taken ones, quantifying the model's overstatement. Every
// (workload, machine) pair is one pool job.
func (r *Runner) ModelValidation(ctx context.Context, o driver.Options, stages int, names []string) ([]SimRow, error) {
	if names == nil {
		names = []string{"wc", "grep", "matmult", "dhrystone", "sieve"}
	}
	sel, err := selectWorkloads(nil, names)
	if err != nil {
		return nil, err
	}
	kinds := []isa.Kind{isa.Baseline, isa.BranchReg}
	rows := make([]SimRow, len(sel)*len(kinds))
	err = r.runJobs(ctx, "model validation", r.workers(0), len(rows),
		func(ctx context.Context, i int) error {
			w := sel[i/len(kinds)]
			kind := kinds[i%len(kinds)]
			p, err := r.cache().Compile(ctx, w.FullSource(), kind, o)
			if err != nil {
				return err
			}
			cmp, err := pipeline.CompareModel(ctx, p, w.Input, stages)
			if err != nil {
				return err
			}
			rows[i] = SimRow{Name: w.Name, Kind: kind,
				ModelCycles: cmp.ModelCycles, SimCycles: cmp.SimCycles,
				OverchargePct: cmp.OverchargePct}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AlignmentStudy measures instruction-fetch delays on a small cache with
// function entries unaligned versus aligned to cache lines (§9: "the
// beginning of the function could be aligned on a cache line boundary").
// Every (alignment, workload) pair is one pool job.
func (r *Runner) AlignmentStudy(ctx context.Context, cfg cache.Config, names []string) ([]AlignRow, error) {
	if names == nil {
		names = []string{"dhrystone", "grep", "tinycc"}
	}
	sel, err := selectWorkloads(nil, names)
	if err != nil {
		return nil, err
	}
	aligns := []int{0, cfg.LineWords}
	cells := make([]cache.Stats, len(aligns)*len(sel))
	err = r.runJobs(ctx, "alignment study", r.workers(0), len(cells),
		func(ctx context.Context, i int) error {
			o := driver.DefaultOptions()
			o.AlignWords = aligns[i/len(sel)]
			st, err := r.cachedRunWithICache(ctx, sel[i%len(sel)], o, cfg, true)
			if err != nil {
				return err
			}
			cells[i] = st
			return nil
		})
	if err != nil {
		return nil, err
	}
	var out []AlignRow
	for ai, align := range aligns {
		var total cache.Stats
		for wi := range sel {
			addCache(&total, &cells[ai*len(sel)+wi])
		}
		out = append(out, AlignRow{AlignWords: align,
			DelayCycles: total.DelayCycles,
			Misses:      total.Misses + total.PartialWaits})
	}
	return out, nil
}

// ablationVariants enumerates the §9 design alternatives in report order.
func ablationVariants() []struct {
	name string
	o    driver.Options
} {
	base := driver.DefaultOptions()
	type variant = struct {
		name string
		o    driver.Options
	}
	variants := []variant{
		{"full (8 bregs)", base},
	}
	v := base
	v.BRM.Hoist = false
	variants = append(variants, variant{"no hoisting", v})
	v = base
	v.BRM.ReplaceNoops = false
	variants = append(variants, variant{"no noop replacement", v})
	v = base
	v.BRM.Schedule = false
	variants = append(variants, variant{"no calc scheduling", v})
	for _, n := range []int{6, 4, 3} {
		v = base
		v.BRM.BranchRegs = n
		variants = append(variants, variant{fmt.Sprintf("%d branch registers", n), v})
	}
	v = base
	v.BRM.FastCompare = true
	variants = append(variants, variant{"fast compare (§9)", v})
	v = base
	v.Opt.LICM = true
	variants = append(variants, variant{"with LICM (§10)", v})
	return variants
}
