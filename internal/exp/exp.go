// Package exp is the experiment harness: it compiles and runs the full
// Appendix I workload suite on both designed machines and regenerates every
// table and figure of the paper's evaluation — Table I's dynamic counts,
// the §7 cycle estimates and ratios, Figure 9's prefetch-distance rule, the
// §8/§9 cache study, and the §9 ablations over the branch-register
// optimizations and register count.
package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"branchreg/internal/cache"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/obs"
	"branchreg/internal/pipeline"
	"branchreg/internal/workloads"
)

// ProgramResult holds one workload's dynamic measurements on both
// machines. In keep-going mode a failed cell leaves its stats zero and
// carries a typed JobError instead; OracleErr reports a differential
// failure (both machines ran but disagreed on output or status).
type ProgramResult struct {
	Name        string
	Baseline    emu.Stats
	BRM         emu.Stats
	BaselineErr *JobError
	BRMErr      *JobError
	OracleErr   *JobError

	// BaselineEngine/BRMEngine name the emulator loop that executed each
	// cell (emu.EngineFused, emu.EngineFast, or emu.EngineInstrumented) —
	// LoopAuto's choice made explicit per run.
	BaselineEngine string
	BRMEngine      string
	// BaselineFusion/BRMFusion describe the block-fused engine's dynamic
	// behavior for each cell; zero unless that cell ran fused (or the
	// adaptive tier entered the fused form).
	BaselineFusion emu.FusionStats
	BRMFusion      emu.FusionStats
	// BaselineRefusion/BRMRefusion say whether the adaptive tier entered
	// the fused form in each cell; zero unless that cell ran adaptive.
	BaselineRefusion emu.RefusionStats
	BRMRefusion      emu.RefusionStats
	// BaselineBlocks/BRMBlocks are the per-cell hot-block tables
	// (Spec.Profile only; top blocks by dynamic instructions).
	BaselineBlocks []obs.HotBlock
	BRMBlocks      []obs.HotBlock
}

// setCellError records a failed cell on the matching machine's slot.
func (p *ProgramResult) setCellError(kind isa.Kind, je *JobError) {
	if kind == isa.Baseline {
		p.BaselineErr = je
	} else {
		p.BRMErr = je
	}
}

// Failed reports whether any cell or the oracle failed.
func (p *ProgramResult) Failed() bool {
	return p.BaselineErr != nil || p.BRMErr != nil || p.OracleErr != nil
}

// SuiteResult is the full suite, plus totals. Failures collects every
// JobError in deterministic suite order (keep-going mode only; empty on
// a clean run).
type SuiteResult struct {
	Programs      []ProgramResult
	BaselineTotal emu.Stats
	BRMTotal      emu.Stats
	Failures      []*JobError
}

// HotBlockTables renders every profiled cell's hot-block table (the
// `brbench -profile` output). Empty when the suite ran unprofiled.
func (r *SuiteResult) HotBlockTables() string {
	var b strings.Builder
	for _, p := range r.Programs {
		if p.BaselineBlocks != nil {
			b.WriteString(obs.FormatHotBlocks(
				fmt.Sprintf("Hot blocks: %s on baseline", p.Name),
				p.BaselineBlocks, p.Baseline.Instructions))
			b.WriteByte('\n')
		}
		if p.BRMBlocks != nil {
			b.WriteString(obs.FormatHotBlocks(
				fmt.Sprintf("Hot blocks: %s on BRM", p.Name),
				p.BRMBlocks, p.BRM.Instructions))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// pct returns the percentage change from old to new. A degenerate cell
// (old == 0 with new != 0) reports ±Inf — rendered as "n/a" by fmtPct and
// as a string by the JSON schema — so it cannot read as "no change".
func pct(new, old int64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		if new > 0 {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return 100 * float64(new-old) / float64(old)
}

// failOr renders a table cell: the value when the cell succeeded, or
// FAIL(<kind>) so a faulted cell can never read as a measurement.
func failOr(v int64, je *JobError) string {
	if je != nil {
		return fmt.Sprintf("FAIL(%s)", je.Kind)
	}
	return fmt.Sprintf("%d", v)
}

// fmtPct renders a pct value for the tables, spelling out degenerate
// cells instead of faking a number.
func fmtPct(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", v)
}

// Table1 renders the paper's Table I: dynamic instructions and data
// references on both machines with the percentage difference, per program
// and in total.
func (r *SuiteResult) Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Dynamic Measurements from the Two Machines\n")
	fmt.Fprintf(&b, "%-12s %15s %15s %8s   %15s %15s %8s\n",
		"program", "base insts", "BRM insts", "diff%", "base datarefs", "BRM datarefs", "diff%")
	for _, p := range r.Programs {
		if p.BaselineErr != nil || p.BRMErr != nil {
			// A failed cell has no stats: render FAIL(<kind>) instead of
			// fake zeros, and no percentage.
			fmt.Fprintf(&b, "%-12s %15s %15s %8s   %15s %15s %8s\n",
				p.Name,
				failOr(p.Baseline.Instructions, p.BaselineErr),
				failOr(p.BRM.Instructions, p.BRMErr), "n/a",
				failOr(p.Baseline.DataRefs(), p.BaselineErr),
				failOr(p.BRM.DataRefs(), p.BRMErr), "n/a")
			continue
		}
		fmt.Fprintf(&b, "%-12s %15d %15d %8s   %15d %15d %8s\n",
			p.Name,
			p.Baseline.Instructions, p.BRM.Instructions,
			fmtPct(pct(p.BRM.Instructions, p.Baseline.Instructions)),
			p.Baseline.DataRefs(), p.BRM.DataRefs(),
			fmtPct(pct(p.BRM.DataRefs(), p.Baseline.DataRefs())))
		if p.OracleErr != nil {
			fmt.Fprintf(&b, "%-12s   !! FAIL(%s): %s\n", "", p.OracleErr.Kind, p.OracleErr.Message)
		}
	}
	fmt.Fprintf(&b, "%-12s %15d %15d %8s   %15d %15d %8s\n",
		"TOTAL",
		r.BaselineTotal.Instructions, r.BRMTotal.Instructions,
		fmtPct(pct(r.BRMTotal.Instructions, r.BaselineTotal.Instructions)),
		r.BaselineTotal.DataRefs(), r.BRMTotal.DataRefs(),
		fmtPct(pct(r.BRMTotal.DataRefs(), r.BaselineTotal.DataRefs())))
	return b.String()
}

// InstructionSavings returns the percentage fewer instructions the BRM
// executed (positive = fewer, the paper reports 6.8%).
func (r *SuiteResult) InstructionSavings() float64 {
	return -pct(r.BRMTotal.Instructions, r.BaselineTotal.Instructions)
}

// ExtraDataRefs returns the percentage additional data references on the
// BRM (the paper reports 2.0%).
func (r *SuiteResult) ExtraDataRefs() float64 {
	return pct(r.BRMTotal.DataRefs(), r.BaselineTotal.DataRefs())
}

// CycleRow is one pipeline-depth row of the §7 cycle estimate.
type CycleRow struct {
	Stages         int
	BaselineCycles int64
	BRMCycles      int64
	SavingsPercent float64
}

// Cycles estimates total cycles at each pipeline depth (the paper reports
// 10.6% fewer cycles at 3 stages, 12.8% at 4).
func (r *SuiteResult) Cycles(stages []int) []CycleRow {
	var out []CycleRow
	for _, n := range stages {
		m := pipeline.Model{Stages: n}
		bc := m.BaselineCycles(&r.BaselineTotal)
		rc := m.BRMCycles(&r.BRMTotal)
		out = append(out, CycleRow{
			Stages:         n,
			BaselineCycles: bc,
			BRMCycles:      rc,
			SavingsPercent: 100 * float64(bc-rc) / float64(bc),
		})
	}
	return out
}

// CycleTable renders the cycle estimates.
func (r *SuiteResult) CycleTable(stages []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Estimated cycles (one cycle per instruction plus transfer delays)\n")
	fmt.Fprintf(&b, "%-8s %15s %15s %10s\n", "stages", "baseline", "branch regs", "savings")
	for _, row := range r.Cycles(stages) {
		fmt.Fprintf(&b, "%-8d %15d %15d %9.1f%%\n",
			row.Stages, row.BaselineCycles, row.BRMCycles, row.SavingsPercent)
	}
	return b.String()
}

// Ratios are the §7 headline ratios.
type Ratios struct {
	TransferPercent     float64 // transfers as % of baseline instructions (~14%)
	TransfersPerCalc    float64 // executed transfers per target calc (>2:1)
	NoopReplacedPercent float64 // baseline noops eliminated on the BRM (~36%)
	SavedPerExtraRef    float64 // fewer instructions per extra data ref (~10:1)
	DelayedTransferPct  float64 // taken transfers with a late calc (~13.86%)
}

// ComputeRatios derives the §7 ratios from the suite totals.
func (r *SuiteResult) ComputeRatios() Ratios {
	base, brm := &r.BaselineTotal, &r.BRMTotal
	var out Ratios
	if base.Instructions > 0 {
		out.TransferPercent = 100 * float64(base.Transfers()) / float64(base.Instructions)
	}
	if brm.BrCalcs > 0 {
		out.TransfersPerCalc = float64(brm.Transfers()) / float64(brm.BrCalcs)
	}
	if base.Noops > 0 {
		out.NoopReplacedPercent = 100 * float64(base.Noops-brm.Noops) / float64(base.Noops)
	}
	saved := base.Instructions - brm.Instructions
	extra := brm.DataRefs() - base.DataRefs()
	if extra > 0 {
		out.SavedPerExtraRef = float64(saved) / float64(extra)
	}
	taken := brm.PrefetchHit + brm.PrefetchMiss
	if taken > 0 {
		out.DelayedTransferPct = 100 * float64(brm.PrefetchMiss) / float64(taken)
	}
	return out
}

// RatiosTable renders the ratios.
func (r *SuiteResult) RatiosTable() string {
	rt := r.ComputeRatios()
	var b strings.Builder
	fmt.Fprintf(&b, "Headline ratios (paper section 7)\n")
	fmt.Fprintf(&b, "transfers of control / baseline instructions : %6.2f%%  (paper ~14%%)\n", rt.TransferPercent)
	fmt.Fprintf(&b, "transfers executed per target address calc   : %6.2f   (paper >2)\n", rt.TransfersPerCalc)
	fmt.Fprintf(&b, "baseline noops eliminated on the BRM         : %6.2f%%  (paper ~36%% of delay-slot noops)\n", rt.NoopReplacedPercent)
	fmt.Fprintf(&b, "instructions saved per extra data reference  : %6.2f   (paper ~10)\n", rt.SavedPerExtraRef)
	fmt.Fprintf(&b, "taken transfers with a late target calc      : %6.2f%%  (paper ~13.9%%)\n", rt.DelayedTransferPct)
	return b.String()
}

// DistanceHistogram renders Figure 9's measured counterpart: the dynamic
// distribution of calc-to-transfer distances on the BRM.
func (r *SuiteResult) DistanceHistogram() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Prefetch distance histogram (instructions between target calc and transfer)\n")
	var total int64
	for _, v := range r.BRMTotal.DistHist {
		total += v
	}
	for d, v := range r.BRMTotal.DistHist {
		label := fmt.Sprintf("%d", d)
		if d == len(r.BRMTotal.DistHist)-1 {
			label = fmt.Sprintf(">=%d", d)
		}
		pctv := 0.0
		if total > 0 {
			pctv = 100 * float64(v) / float64(total)
		}
		marker := ""
		if d < emu.MinPrefetchDist {
			marker = "  <- pipeline delay (distance < 2, Figure 9)"
		}
		fmt.Fprintf(&b, "%5s: %12d (%5.1f%%)%s\n", label, v, pctv, marker)
	}
	return b.String()
}

// ---- cache study (experiment E10) ----

// CacheResult is one (configuration, prefetch-mode) measurement.
type CacheResult struct {
	Config   cache.Config
	Prefetch bool
	Stats    cache.Stats
}

func addCache(dst, src *cache.Stats) {
	dst.Fetches += src.Fetches
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.PartialWaits += src.PartialWaits
	dst.DelayCycles += src.DelayCycles
	dst.Prefetches += src.Prefetches
	dst.PrefetchDup += src.PrefetchDup
	dst.PrefetchUsed += src.PrefetchUsed
	dst.PrefetchWaste += src.PrefetchWaste
	dst.Pollution += src.Pollution
}

// CacheTable renders the cache study.
func CacheTable(results []CacheResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Instruction cache study (sections 8-9): prefetch on branch register assignment\n")
	fmt.Fprintf(&b, "%-26s %-9s %12s %9s %12s %10s %10s\n",
		"organization", "prefetch", "fetch delays", "hit rate", "miss+wait", "pollution", "waste")
	for _, r := range results {
		pre := "off"
		if r.Prefetch {
			pre = "on"
		}
		fmt.Fprintf(&b, "%-26s %-9s %12d %8.2f%% %12d %10d %10d\n",
			r.Config.String(), pre, r.Stats.DelayCycles, 100*r.Stats.HitRate(),
			r.Stats.Misses+r.Stats.PartialWaits, r.Stats.Pollution, r.Stats.PrefetchWaste)
	}
	return b.String()
}

// ---- ablations (experiment E11) ----

// AblationResult measures one BRM configuration over the suite.
type AblationResult struct {
	Name         string
	Instructions int64
	DataRefs     int64
	Cycles3      int64
	BrCalcs      int64
	Noops        int64
}

// AblationTable renders ablation results.
func AblationTable(results []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "BRM ablations (section 9 design alternatives)\n")
	fmt.Fprintf(&b, "%-22s %14s %12s %14s %12s %10s\n",
		"variant", "instructions", "data refs", "cycles (3st)", "target calcs", "noops")
	for _, r := range results {
		fmt.Fprintf(&b, "%-22s %14d %12d %14d %12d %10d\n",
			r.Name, r.Instructions, r.DataRefs, r.Cycles3, r.BrCalcs, r.Noops)
	}
	return b.String()
}

// Names returns the workload names in suite order.
func Names() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	sort.Strings(out)
	return out
}
