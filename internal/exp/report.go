package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"branchreg/internal/cache"
	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/obs"
)

// ReportSchemaVersion identifies the JSON layout emitted by Report. Bump
// it on any incompatible change so committed BENCH_<n>.json files remain
// interpretable across PRs.
//
// v2: per-job error objects — Report.Errors lists every failed cell or
// phase (keep-going mode) with a typed kind (emulator trap taxonomy or
// compile/panic/timeout/output-mismatch) and the emulator's full trap
// context; ProgramReport gains baseline_error/brm_error/oracle_error.
//
// v3: observability — ProgramReport gains baseline_engine/brm_engine
// (the emulator loop that actually executed each cell) and, under
// -profile, baseline_hot_blocks/brm_hot_blocks (per-cell dynamic
// basic-block tables); Report gains pool (emulator-memory pool traffic).
// Like the v2 phases array, pool.reused is an environment observation
// (garbage-collector timing), not part of the deterministic payload;
// every other new field is byte-deterministic at any parallelism.
//
// v4: the block-fused engine — baseline_engine/brm_engine may now read
// "fused" (the LoopAuto default when hooks and faults permit), and cells
// that ran fused gain baseline_fusion/brm_fusion objects (blocks entered,
// instructions retired inside superinstructions, hand-offs to the fast
// loop). All three counts are byte-deterministic at any parallelism.
//
// v5: the adaptive tier — baseline_engine/brm_engine may read "adaptive"
// (explicit -engine adaptive runs), and such cells gain
// baseline_refusion/brm_refusion objects ({"promoted": bool}: whether
// the run switched to the program's fused form) next to the fusion
// counters that form reports. Deterministic for the first adaptive run
// of each compiled program, which is what a suite cell is.
const ReportSchemaVersion = 5

// Float is a float64 that survives JSON: non-finite values (the ±Inf a
// degenerate percentage cell reports, see pct) marshal as the strings
// "+Inf"/"-Inf"/"NaN" instead of failing encoding/json, and unmarshal
// back to the same value.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = Float(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = Float(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("exp: Float: %w", err)
	}
	*f = Float(v)
	return nil
}

// AllSpec selects which experiment phases RunAll executes and how.
type AllSpec struct {
	Suite      bool // Table I, cycle estimates, ratios, Figure 9
	CacheStudy bool // §8/§9 instruction-cache study
	Ablations  bool // §9 design alternatives
	Validate   bool // cycle model vs dynamic pipeline simulation
	Align      bool // §9 function-entry alignment

	// Workloads filters every phase by name (nil = each phase's default:
	// the full suite for Suite and Ablations, representative subsets for
	// the studies).
	Workloads []string
	// Options configures the compiler (zero value = DefaultOptions).
	Options driver.Options
	// CacheConfigs are the organizations the cache study sweeps
	// (nil = DefaultCacheConfigs).
	CacheConfigs []cache.Config
	// ValidateStages are the pipeline depths validated (nil = 3 and 4).
	ValidateStages []int
	// AlignConfig is the alignment study's cache (zero = a small 2-way
	// organization where alignment effects are visible).
	AlignConfig cache.Config

	// KeepGoing degrades failed cells and phases into typed JobErrors
	// (AllResults.Errors / the report's errors array) instead of
	// aborting the run on the first failure.
	KeepGoing bool
	// Profile attaches block profiles to every suite run and surfaces
	// per-program hot-block tables (see Spec.Profile).
	Profile bool
	// Faults maps "<workload>/<machine label>" to a deterministic fault
	// plan injected into that suite cell (see Spec.Faults).
	Faults map[string]*emu.FaultPlan
	// Loop selects the emulator engine for suite cells (see Spec.Loop);
	// the zero value (emu.LoopAuto) prefers the block-fused loop.
	Loop emu.LoopMode
}

// DefaultCacheConfigs returns the cache study's standard sweep.
func DefaultCacheConfigs() []cache.Config {
	return []cache.Config{
		{LineWords: 4, Sets: 32, Assoc: 1, MissPenalty: 8},
		{LineWords: 4, Sets: 16, Assoc: 2, MissPenalty: 8},
		{LineWords: 8, Sets: 16, Assoc: 1, MissPenalty: 8},
		{LineWords: 8, Sets: 8, Assoc: 2, MissPenalty: 8},
		{LineWords: 8, Sets: 32, Assoc: 2, MissPenalty: 8},
		{LineWords: 16, Sets: 16, Assoc: 2, MissPenalty: 8},
		{LineWords: 8, Sets: 64, Assoc: 4, MissPenalty: 8},
	}
}

// PhaseTime records one phase's wall clock.
type PhaseTime struct {
	Name   string `json:"name"`
	Millis int64  `json:"millis"`
}

// ValidationResult groups model-validation rows by pipeline depth.
type ValidationResult struct {
	Stages int
	Rows   []SimRow
}

// AllResults bundles every phase RunAll executed, ready for table
// rendering (the existing SuiteResult/CacheTable/... methods) or JSON
// export via Report.
type AllResults struct {
	Workloads    []string // suite workload names measured (suite phase)
	Parallelism  int
	Suite        *SuiteResult
	CacheConfigs []cache.Config
	Cache        []CacheResult
	Ablations    []AblationResult
	Validation   []ValidationResult
	Alignment    []AlignRow
	AlignConfig  cache.Config
	CompileCache driver.CacheStats
	// Pool is the emulator-memory pool traffic of this run (the delta of
	// the process-wide counters across RunAll). Gets/Puts are
	// deterministic for a spec; Fresh depends on GC timing.
	Pool   driver.PoolStats
	Phases []PhaseTime
	// Errors collects every failure the run degraded instead of
	// aborting on (keep-going mode), in deterministic phase-then-suite
	// order. Empty on a clean run.
	Errors []*JobError
}

// RunAll executes the selected phases sequentially, each internally
// parallel over the Runner's pool and all sharing its compile cache, so
// a full `brbench -all` compiles each (program, machine, options) at
// most once. Per-phase wall clock lands in AllResults.Phases.
func (r *Runner) RunAll(ctx context.Context, spec AllSpec) (*AllResults, error) {
	if spec.Options == (driver.Options{}) {
		spec.Options = driver.DefaultOptions()
	}
	if spec.CacheConfigs == nil {
		spec.CacheConfigs = DefaultCacheConfigs()
	}
	if spec.ValidateStages == nil {
		spec.ValidateStages = []int{3, 4}
	}
	if spec.AlignConfig == (cache.Config{}) {
		spec.AlignConfig = cache.Config{LineWords: 8, Sets: 16, Assoc: 2, MissPenalty: 8}
	}
	out := &AllResults{Parallelism: r.workers(0)}
	poolStart := driver.PoolStatsNow()
	// phase runs one experiment phase under its own trace span (jobs
	// started inside parent their cell spans to it via the context). With
	// KeepGoing a failed phase degrades to a typed JobError and the
	// remaining phases still run; otherwise the first failure aborts as
	// before.
	outerCtx := ctx
	phase := func(name string, f func(ctx context.Context) error) error {
		span := r.Tracer.Begin(name, "phase", obs.SpanFromContext(outerCtx), 0)
		defer span.End()
		ctx := obs.ContextWithSpan(outerCtx, span.ID())
		start := time.Now()
		if err := f(ctx); err != nil {
			if !spec.KeepGoing {
				return err
			}
			out.Errors = append(out.Errors, newJobError(name, "", "", false, err))
			return nil
		}
		out.Phases = append(out.Phases, PhaseTime{Name: name, Millis: time.Since(start).Milliseconds()})
		return nil
	}

	if spec.Suite {
		if err := phase("suite", func(ctx context.Context) error {
			s, err := r.Run(ctx, Spec{Workloads: spec.Workloads, Options: spec.Options,
				KeepGoing: spec.KeepGoing, Faults: spec.Faults, Profile: spec.Profile,
				Loop: spec.Loop})
			if err != nil {
				return err
			}
			out.Suite = s
			out.Errors = append(out.Errors, s.Failures...)
			for _, p := range s.Programs {
				out.Workloads = append(out.Workloads, p.Name)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if spec.CacheStudy {
		if err := phase("cache study", func(ctx context.Context) error {
			res, err := r.CacheStudy(ctx, spec.Options, spec.CacheConfigs, spec.Workloads)
			if err != nil {
				return err
			}
			out.CacheConfigs, out.Cache = spec.CacheConfigs, res
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if spec.Ablations {
		if err := phase("ablations", func(ctx context.Context) error {
			names := spec.Workloads
			if names == nil {
				names = Names()
			}
			res, err := r.Ablations(ctx, names)
			if err != nil {
				return err
			}
			out.Ablations = res
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if spec.Validate {
		for _, stages := range spec.ValidateStages {
			stages := stages
			if err := phase(fmt.Sprintf("model validation (%d stages)", stages), func(ctx context.Context) error {
				rows, err := r.ModelValidation(ctx, spec.Options, stages, spec.Workloads)
				if err != nil {
					return err
				}
				out.Validation = append(out.Validation, ValidationResult{Stages: stages, Rows: rows})
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	if spec.Align {
		if err := phase("alignment study", func(ctx context.Context) error {
			rows, err := r.AlignmentStudy(ctx, spec.AlignConfig, spec.Workloads)
			if err != nil {
				return err
			}
			out.Alignment, out.AlignConfig = rows, spec.AlignConfig
			return nil
		}); err != nil {
			return nil, err
		}
	}
	out.CompileCache = r.cache().Stats()
	out.Pool = driver.PoolStatsNow().Sub(poolStart)
	return out, nil
}

// ---- JSON schema ----

// Report is the versioned machine-readable form of AllResults, the
// payload of `brbench -json` (commit one as BENCH_<n>.json to track the
// performance trajectory across PRs).
type Report struct {
	Schema       int                `json:"schema"`
	Tool         string             `json:"tool"`
	Parallelism  int                `json:"parallelism"`
	Workloads    []string           `json:"workloads,omitempty"`
	Suite        *SuiteReport       `json:"suite,omitempty"`
	CacheStudy   []CacheStudyRow    `json:"cache_study,omitempty"`
	Ablations    []AblationResult   `json:"ablations,omitempty"`
	Validation   []ValidationReport `json:"validation,omitempty"`
	Alignment    *AlignmentReport   `json:"alignment,omitempty"`
	CompileCache driver.CacheStats  `json:"compile_cache"`
	// Pool is schema v3's emulator-memory pool traffic. gets/puts are
	// deterministic; fresh (and so the reuse rate) tracks GC timing, like
	// the phases array's wall-clock millis.
	Pool   driver.PoolStats `json:"pool"`
	Phases []PhaseTime      `json:"phases,omitempty"`
	// Errors is schema v2's per-job failure list: one object per failed
	// cell or phase, with a typed kind and (for emulator faults) the
	// full trap context. Non-empty exactly when the run degraded
	// failures in keep-going mode.
	Errors []*JobError `json:"errors,omitempty"`
}

// SuiteReport is Table I, the §7 cycle estimates and ratios, and
// Figure 9's histogram in one object.
type SuiteReport struct {
	Programs              []ProgramReport `json:"programs"`
	BaselineTotal         emu.Stats       `json:"baseline_total"`
	BRMTotal              emu.Stats       `json:"brm_total"`
	InstructionSavingsPct Float           `json:"instruction_savings_pct"`
	ExtraDataRefsPct      Float           `json:"extra_data_refs_pct"`
	Cycles                []CycleReport   `json:"cycles"`
	Ratios                RatiosReport    `json:"ratios"`
	DistHist              []int64         `json:"dist_hist"`
	MinPrefetchDist       int             `json:"min_prefetch_dist"`
}

// ProgramReport is one Table I row. The error fields are schema v2's
// per-cell failure markers: a failed cell keeps zero stats and carries
// the typed JobError instead.
type ProgramReport struct {
	Name           string    `json:"name"`
	Baseline       emu.Stats `json:"baseline"`
	BRM            emu.Stats `json:"brm"`
	InstDiffPct    Float     `json:"inst_diff_pct"`
	DataRefDiffPct Float     `json:"data_ref_diff_pct"`
	BaselineError  *JobError `json:"baseline_error,omitempty"`
	BRMError       *JobError `json:"brm_error,omitempty"`
	OracleError    *JobError `json:"oracle_error,omitempty"`
	// Engine fields (schema v3) record which emulator loop actually ran
	// each cell — "fused", "fast" or "instrumented" — so a silent fallback
	// from the fast-path loops is visible in the committed trajectory.
	BaselineEngine string `json:"baseline_engine,omitempty"`
	BRMEngine      string `json:"brm_engine,omitempty"`
	// Fusion fields (schema v4) describe the block-fused engine's dynamic
	// behavior; present exactly when the cell's engine is "fused" or
	// "adaptive" (the adaptive tier runs the same fused form).
	BaselineFusion *emu.FusionStats `json:"baseline_fusion,omitempty"`
	BRMFusion      *emu.FusionStats `json:"brm_fusion,omitempty"`
	// Refusion fields (schema v5) say whether the adaptive tier entered
	// the fused form; present exactly when the cell's engine is
	// "adaptive".
	BaselineRefusion *emu.RefusionStats `json:"baseline_refusion,omitempty"`
	BRMRefusion      *emu.RefusionStats `json:"brm_refusion,omitempty"`
	// Hot-block tables (schema v3, -profile runs only): the program's
	// hottest dynamic basic blocks with paper-style branch-cost
	// attribution.
	BaselineHotBlocks []obs.HotBlock `json:"baseline_hot_blocks,omitempty"`
	BRMHotBlocks      []obs.HotBlock `json:"brm_hot_blocks,omitempty"`
}

// CycleReport is one §7 cycle-estimate row.
type CycleReport struct {
	Stages         int   `json:"stages"`
	BaselineCycles int64 `json:"baseline_cycles"`
	BRMCycles      int64 `json:"brm_cycles"`
	SavingsPct     Float `json:"savings_pct"`
}

// RatiosReport mirrors Ratios with JSON-safe floats.
type RatiosReport struct {
	TransferPct        Float `json:"transfer_pct"`
	TransfersPerCalc   Float `json:"transfers_per_calc"`
	NoopReplacedPct    Float `json:"noop_replaced_pct"`
	SavedPerExtraRef   Float `json:"saved_per_extra_ref"`
	DelayedTransferPct Float `json:"delayed_transfer_pct"`
}

// CacheStudyRow is one (organization, prefetch-mode) measurement.
type CacheStudyRow struct {
	Config   cache.Config `json:"config"`
	Prefetch bool         `json:"prefetch"`
	Stats    cache.Stats  `json:"stats"`
}

// ValidationReport is the model-vs-simulation comparison at one depth.
type ValidationReport struct {
	Stages int            `json:"stages"`
	Rows   []SimRowReport `json:"rows"`
}

// SimRowReport is one model-validation row.
type SimRowReport struct {
	Name          string `json:"name"`
	Machine       string `json:"machine"`
	ModelCycles   int64  `json:"model_cycles"`
	SimCycles     int64  `json:"sim_cycles"`
	OverchargePct Float  `json:"overcharge_pct"`
}

// AlignmentReport is the §9 alignment study.
type AlignmentReport struct {
	Config cache.Config `json:"config"`
	Rows   []AlignRow   `json:"rows"`
}

// Report converts the results to the versioned JSON schema.
func (a *AllResults) Report() *Report {
	rep := &Report{
		Schema:       ReportSchemaVersion,
		Tool:         "brbench",
		Parallelism:  a.Parallelism,
		Workloads:    a.Workloads,
		CompileCache: a.CompileCache,
		Pool:         a.Pool,
		Phases:       a.Phases,
		Errors:       a.Errors,
	}
	if s := a.Suite; s != nil {
		sr := &SuiteReport{
			BaselineTotal:         s.BaselineTotal,
			BRMTotal:              s.BRMTotal,
			InstructionSavingsPct: Float(s.InstructionSavings()),
			ExtraDataRefsPct:      Float(s.ExtraDataRefs()),
			DistHist:              append([]int64(nil), s.BRMTotal.DistHist[:]...),
			MinPrefetchDist:       emu.MinPrefetchDist,
		}
		for _, p := range s.Programs {
			pr := ProgramReport{
				Name:              p.Name,
				Baseline:          p.Baseline,
				BRM:               p.BRM,
				InstDiffPct:       Float(pct(p.BRM.Instructions, p.Baseline.Instructions)),
				DataRefDiffPct:    Float(pct(p.BRM.DataRefs(), p.Baseline.DataRefs())),
				BaselineError:     p.BaselineErr,
				BRMError:          p.BRMErr,
				OracleError:       p.OracleErr,
				BaselineEngine:    p.BaselineEngine,
				BRMEngine:         p.BRMEngine,
				BaselineHotBlocks: p.BaselineBlocks,
				BRMHotBlocks:      p.BRMBlocks,
			}
			if p.BaselineEngine == emu.EngineFused || p.BaselineEngine == emu.EngineAdaptive {
				f := p.BaselineFusion
				pr.BaselineFusion = &f
			}
			if p.BRMEngine == emu.EngineFused || p.BRMEngine == emu.EngineAdaptive {
				f := p.BRMFusion
				pr.BRMFusion = &f
			}
			if p.BaselineEngine == emu.EngineAdaptive {
				r := p.BaselineRefusion
				pr.BaselineRefusion = &r
			}
			if p.BRMEngine == emu.EngineAdaptive {
				r := p.BRMRefusion
				pr.BRMRefusion = &r
			}
			sr.Programs = append(sr.Programs, pr)
		}
		for _, row := range s.Cycles([]int{3, 4, 5}) {
			sr.Cycles = append(sr.Cycles, CycleReport{
				Stages:         row.Stages,
				BaselineCycles: row.BaselineCycles,
				BRMCycles:      row.BRMCycles,
				SavingsPct:     Float(row.SavingsPercent),
			})
		}
		rt := s.ComputeRatios()
		sr.Ratios = RatiosReport{
			TransferPct:        Float(rt.TransferPercent),
			TransfersPerCalc:   Float(rt.TransfersPerCalc),
			NoopReplacedPct:    Float(rt.NoopReplacedPercent),
			SavedPerExtraRef:   Float(rt.SavedPerExtraRef),
			DelayedTransferPct: Float(rt.DelayedTransferPct),
		}
		rep.Suite = sr
	}
	for _, c := range a.Cache {
		rep.CacheStudy = append(rep.CacheStudy, CacheStudyRow{
			Config: c.Config, Prefetch: c.Prefetch, Stats: c.Stats})
	}
	rep.Ablations = a.Ablations
	for _, v := range a.Validation {
		vr := ValidationReport{Stages: v.Stages}
		for _, row := range v.Rows {
			vr.Rows = append(vr.Rows, SimRowReport{
				Name:          row.Name,
				Machine:       machineLabel(row.Kind),
				ModelCycles:   row.ModelCycles,
				SimCycles:     row.SimCycles,
				OverchargePct: Float(row.OverchargePct),
			})
		}
		rep.Validation = append(rep.Validation, vr)
	}
	if a.Alignment != nil {
		rep.Alignment = &AlignmentReport{Config: a.AlignConfig, Rows: a.Alignment}
	}
	return rep
}

// Encode renders the report as indented JSON with a trailing newline.
func (rep *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeReport parses JSON produced by Encode, rejecting unknown schema
// versions.
func DecodeReport(b []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("exp: report: %w", err)
	}
	if rep.Schema != ReportSchemaVersion {
		return nil, fmt.Errorf("exp: report schema %d, this build reads %d", rep.Schema, ReportSchemaVersion)
	}
	return &rep, nil
}
