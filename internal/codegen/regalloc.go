package codegen

import (
	"cmp"
	"math/bits"
	"slices"

	"branchreg/internal/ir"
)

// Loc is where a virtual register lives after allocation.
type Loc struct {
	Reg   int // machine register when Spill is false
	Spill bool
	Slot  int // spill slot index when Spill is true
}

// Allocation is the result of register allocation for one function.
type Allocation struct {
	Int       []Loc        // indexed by integer vreg
	Float     []Loc        // indexed by float vreg
	IntSpills int          // number of 4-byte integer spill slots
	FltSpills int          // number of 8-byte float spill slots
	UsedInt   map[int]bool // machine registers assigned to some vreg
	UsedFloat map[int]bool
}

type interval struct {
	vreg       ir.Reg
	float      bool
	start, end int // start -1: the vreg never appears
	crossCall  bool
}

// Allocate runs a linear-scan register allocation over f for machine m.
// Intervals that are live across a call may only take callee-saved
// registers; everything else prefers caller-saved. Unassignable intervals
// spill to dedicated frame slots.
func Allocate(m *Machine, f *ir.Func) *Allocation {
	// Linearize: assign positions to instructions in block layout order.
	blockStart := make([]int, len(f.Blocks))
	blockEnd := make([]int, len(f.Blocks))
	pos := 0
	var callPos []int
	for i, b := range f.Blocks {
		blockStart[i] = pos
		for j := range b.Ins {
			// Builtin calls lower to traps that preserve all registers
			// except r1/f1, which are never allocatable, so they do not
			// constrain allocation.
			if b.Ins[j].Kind == ir.OpCall && !b.Ins[j].Builtin {
				callPos = append(callPos, pos)
			}
			pos++
		}
		blockEnd[i] = pos - 1
	}

	intLive, fltLive := f.ComputeLiveness()

	// One interval per vreg, integer then float, in one slice.
	ivs := make([]interval, f.NumInt+f.NumFloat)
	intIv, fltIv := ivs[:f.NumInt:f.NumInt], ivs[f.NumInt:]
	for i := range intIv {
		intIv[i] = interval{vreg: ir.Reg(i), start: -1}
	}
	for i := range fltIv {
		fltIv[i] = interval{vreg: ir.Reg(i), float: true, start: -1}
	}
	touch := func(ivs []interval, v ir.Reg, p int) {
		if v == ir.None {
			return
		}
		iv := &ivs[v]
		if iv.start < 0 {
			iv.start, iv.end = p, p
			return
		}
		if p < iv.start {
			iv.start = p
		}
		if p > iv.end {
			iv.end = p
		}
	}
	touchSet := func(ivs []interval, s ir.RegSet, p int) {
		for w, word := range s {
			for ; word != 0; word &= word - 1 {
				touch(ivs, ir.Reg(64*w+bits.TrailingZeros64(word)), p)
			}
		}
	}

	// Parameters are defined at position -1 (function entry).
	for _, p := range f.Params {
		if p.Float {
			touch(fltIv, p.R, 0)
		} else {
			touch(intIv, p.R, 0)
		}
	}

	pos = 0
	var ibuf, fbuf []ir.Reg
	for bi, b := range f.Blocks {
		// Extend intervals of live-in/live-out vregs over the whole block.
		touchSet(intIv, intLive.In[bi], blockStart[bi])
		touchSet(intIv, intLive.Out[bi], blockEnd[bi])
		touchSet(fltIv, fltLive.In[bi], blockStart[bi])
		touchSet(fltIv, fltLive.Out[bi], blockEnd[bi])
		for j := range b.Ins {
			in := &b.Ins[j]
			ibuf, fbuf = in.Uses(ibuf[:0], fbuf[:0])
			for _, r := range ibuf {
				touch(intIv, r, pos)
			}
			for _, r := range fbuf {
				touch(fltIv, r, pos)
			}
			di, df := in.Defs()
			touch(intIv, di, pos)
			touch(fltIv, df, pos)
			pos++
		}
	}

	// Mark call-crossing intervals.
	for i := range ivs {
		iv := &ivs[i]
		if iv.start < 0 {
			continue
		}
		for _, cp := range callPos {
			if iv.start < cp && cp < iv.end {
				iv.crossCall = true
				break
			}
		}
	}

	a := &Allocation{
		Int:       make([]Loc, f.NumInt),
		Float:     make([]Loc, f.NumFloat),
		UsedInt:   map[int]bool{},
		UsedFloat: map[int]bool{},
	}
	a.IntSpills = scan(collect(intIv), m.CallerInt, m.CalleeInt, a.Int, a.UsedInt)
	a.FltSpills = scan(collect(fltIv), m.CallerFloat, m.CalleeFloat, a.Float, a.UsedFloat)
	return a
}

// collect packs the intervals of vregs that appear to the front of ivs,
// in place, and sorts them by start (then vreg, so the order is total).
func collect(ivs []interval) []interval {
	out := ivs[:0]
	for _, iv := range ivs {
		if iv.start >= 0 {
			out = append(out, iv)
		}
	}
	slices.SortFunc(out, func(a, b interval) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(a.vreg, b.vreg)
	})
	return out
}

// scan performs the linear scan over one register class, writing results
// into locs and returning the number of spill slots used.
func scan(ivs []interval, caller, callee []int, locs []Loc, used map[int]bool) int {
	type active struct {
		iv  *interval
		reg int
	}
	var act []active
	var free, isCallee regFlags
	for _, r := range caller {
		free[r] = true
	}
	for _, r := range callee {
		free[r] = true
		isCallee[r] = true
	}
	spills := 0
	for i := range ivs {
		iv := &ivs[i]
		// Expire finished intervals.
		kept := act[:0]
		for _, a := range act {
			if a.iv.end < iv.start {
				free[a.reg] = true
			} else {
				kept = append(kept, a)
			}
		}
		act = kept
		// Pick a register.
		reg := -1
		if iv.crossCall {
			reg = pick(&free, callee)
		} else {
			reg = pick(&free, caller)
			if reg < 0 {
				reg = pick(&free, callee)
			}
		}
		if reg < 0 {
			// Spill heuristic: if some active interval compatible with this
			// one ends much later, spill it instead.
			victim := -1
			for i, a := range act {
				if a.iv.end > iv.end && (!iv.crossCall || isCallee[a.reg]) {
					if victim < 0 || a.iv.end > act[victim].iv.end {
						victim = i
					}
				}
			}
			if victim >= 0 {
				v := act[victim]
				locs[v.iv.vreg] = Loc{Spill: true, Slot: spills}
				spills++
				reg = v.reg
				act = append(act[:victim], act[victim+1:]...)
			} else {
				locs[iv.vreg] = Loc{Spill: true, Slot: spills}
				spills++
				continue
			}
		}
		free[reg] = false
		used[reg] = true
		locs[iv.vreg] = Loc{Reg: reg}
		act = append(act, active{iv: iv, reg: reg})
	}
	return spills
}

// regFlags marks machine registers of one class; neither machine has more
// than 32 registers per class.
type regFlags [32]bool

func pick(free *regFlags, order []int) int {
	for _, r := range order {
		if free[r] {
			return r
		}
	}
	return -1
}
