package obs

import (
	"fmt"
	"sort"
	"strings"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
)

// The hot-block profiler: turns one run's emu.BlockProfile (flow counts
// recorded only at transfers of control) into the paper-style dynamic
// tables — per-basic-block execution counts, per-branch taken/not-taken
// tallies, and branch-cost attribution under the §7 three-stage model.
//
// Blocks are segmented dynamically, from the run itself, not from a
// static CFG: a new block starts wherever the reconstructed execution
// count changes, where any taken transfer landed (Arrive > 0), or where
// the enclosing function changes. This is exactly the basic-block notion
// the paper's dynamic measurements use — maximal straight-line runs with
// a single observed entry — and needs no decoder support.

// HotBlock is one dynamic basic block of a profiled run.
type HotBlock struct {
	Fn   string `json:"fn"`   // enclosing function ("" for pad slots)
	Addr int32  `json:"addr"` // byte address of the first instruction
	Len  int    `json:"len"`  // instructions in the block

	Count    int64   `json:"count"`     // times the block executed
	DynInsts int64   `json:"dyn_insts"` // Count × Len
	PctInsts float64 `json:"pct_insts"` // DynInsts as % of the run's total

	Taken    int64 `json:"taken"`     // taken outcomes at branch sites in the block
	NotTaken int64 `json:"not_taken"` // untaken outcomes

	// CostCycles attributes branch cost to the block under the 3-stage
	// model: on the baseline machine every executed transfer pays the
	// delayed-branch bubble (N-2 = 1 cycle, taken or not, paper §7); on
	// the BRM only late target calculations pay (the accumulated
	// Figure 9 penalty; the N-3 conditional delay is 0 at 3 stages).
	CostCycles int64 `json:"cost_cycles"`
}

// HotBlocks aggregates a profile into dynamic basic blocks, hottest
// (most dynamic instructions) first, truncated to top entries (top <= 0
// keeps all). Blocks that never executed are dropped.
func HotBlocks(p *isa.Program, prof *emu.BlockProfile, top int) []HotBlock {
	if p == nil || prof == nil || len(prof.Arrive) != len(p.Text) {
		return nil
	}
	counts := prof.Counts()
	var total int64
	for _, c := range counts {
		total += c
	}

	// Three-stage baseline transfer bubble, stages-2 = 1 cycle per
	// executed transfer (pipeline.Model.BaselineTransferDelay at 3
	// stages; not imported — pipeline's tests sit above obs via driver,
	// so obs must not import pipeline).
	const baseDelay = int64(3 - 2)

	var blocks []HotBlock
	var cur *HotBlock
	for i := range counts {
		fn := p.FuncAt(i)
		if cur == nil || prof.Arrive[i] > 0 || counts[i] != cur.Count || fn != cur.Fn {
			blocks = append(blocks, HotBlock{Fn: fn, Addr: isa.IndexToAddr(i), Count: counts[i]})
			cur = &blocks[len(blocks)-1]
		}
		cur.Len++
		cur.Taken += prof.Taken[i]
		cur.NotTaken += prof.NotTaken[i]
		if p.Kind == isa.Baseline {
			cur.CostCycles += (prof.Taken[i] + prof.NotTaken[i]) * baseDelay
		} else {
			cur.CostCycles += prof.Penalty[i]
		}
	}

	kept := blocks[:0]
	for _, b := range blocks {
		if b.Count == 0 {
			continue
		}
		b.DynInsts = b.Count * int64(b.Len)
		if total > 0 {
			b.PctInsts = 100 * float64(b.DynInsts) / float64(total)
		}
		kept = append(kept, b)
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].DynInsts != kept[j].DynInsts {
			return kept[i].DynInsts > kept[j].DynInsts
		}
		return kept[i].Addr < kept[j].Addr
	})
	if top > 0 && len(kept) > top {
		kept = kept[:top]
	}
	return append([]HotBlock(nil), kept...)
}

// FormatHotBlocks renders a hot-block table. totalInsts is the run's
// Stats.Instructions, printed in the footer so the coverage of the
// listed blocks is visible.
func FormatHotBlocks(title string, blocks []HotBlock, totalInsts int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s %10s %5s %12s %14s %7s %12s %12s %11s\n",
		"func", "addr", "len", "count", "dyn insts", "%insts", "taken", "not taken", "cost (cyc)")
	var listed, cost int64
	for _, blk := range blocks {
		fn := blk.Fn
		if fn == "" {
			fn = "(pad)"
		}
		fmt.Fprintf(&b, "%-16s %#10x %5d %12d %14d %6.2f%% %12d %12d %11d\n",
			fn, uint32(blk.Addr), blk.Len, blk.Count, blk.DynInsts, blk.PctInsts,
			blk.Taken, blk.NotTaken, blk.CostCycles)
		listed += blk.DynInsts
		cost += blk.CostCycles
	}
	if totalInsts > 0 {
		fmt.Fprintf(&b, "listed blocks: %d of %d dynamic instructions (%.2f%%), %d branch-cost cycles\n",
			listed, totalInsts, 100*float64(listed)/float64(totalInsts), cost)
	}
	return b.String()
}
