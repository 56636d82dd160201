// Package opt implements the machine-independent optimizations the MC
// compiler runs before code generation: constant folding and propagation,
// copy propagation, local common-subexpression elimination, dead-code
// elimination, and CFG simplification. These mirror the "conventional
// optimizations" the paper's compiler performs before the branch-register
// transformation (paper §5, §10).
package opt

import (
	"fmt"
	"slices"

	"branchreg/internal/ir"
)

// Options selects which passes run.
type Options struct {
	Fold     bool
	CopyProp bool
	CSE      bool
	DCE      bool
	Simplify bool
	// LICM is loop-invariant code motion (§10's "code motion"). It is OFF
	// by default: hoisted values live across whole loops, and with a
	// linear-scan allocator that pressure lands disproportionately on the
	// 16-register branch-register machine (measured: +47% data references
	// on the suite), distorting the comparison the paper's
	// globally-allocating compiler did not suffer. Enable it to reproduce
	// that interaction (see EXPERIMENTS.md).
	LICM bool
}

// Default enables every pass except LICM (see the field comment).
var Default = Options{Fold: true, CopyProp: true, CSE: true, DCE: true, Simplify: true}

// None disables every pass (for ablation experiments).
var None = Options{}

// Run optimizes the function in place and re-runs CFG analysis.
func Run(f *ir.Func, o Options) error {
	for round := 0; round < 3; round++ {
		changed := false
		if o.Fold {
			changed = foldConstants(f) || changed
		}
		if o.CopyProp {
			changed = copyProp(f) || changed
		}
		if o.CSE {
			changed = localCSE(f) || changed
		}
		if o.Simplify {
			c, err := simplifyCFG(f)
			if err != nil {
				return err
			}
			changed = changed || c
		}
		if o.DCE {
			changed = deadCode(f) || changed
		}
		if !changed {
			break
		}
	}
	if o.LICM {
		if licm(f) {
			// Clean up after motion (dead copies, newly foldable code).
			if o.CopyProp {
				copyProp(f)
			}
			if o.DCE {
				deadCode(f)
			}
		}
	}
	return f.Analyze()
}

// RunUnit optimizes every function in the unit.
func RunUnit(u *ir.Unit, o Options) error {
	for _, f := range u.Funcs {
		if err := Run(f, o); err != nil {
			return fmt.Errorf("opt: %s: %w", f.Name, err)
		}
	}
	return nil
}

// ---- constant folding / propagation ----

func foldConstants(f *ir.Func) bool {
	changed := false
	known := map[ir.Reg]int32{}
	for _, b := range f.Blocks {
		clear(known)
		for i := range b.Ins {
			in := &b.Ins[i]
			// Propagate a known-constant B operand into the immediate field.
			usesB := (in.Kind.IsBinALU() || in.Kind == ir.OpSetCond || in.Kind == ir.OpBr) && !in.UseImm
			if usesB {
				if v, ok := known[in.B]; ok {
					in.UseImm = true
					in.Imm = int64(v)
					in.B = ir.None
					changed = true
				}
			}
			if in.Kind == ir.OpStore && in.Off == 0 {
				// nothing to fold; stores keep register operands
			}
			// Fold fully-constant ALU ops.
			if in.Kind.IsBinALU() && in.UseImm {
				if a, ok := known[in.A]; ok {
					if v, ok2 := evalALU(in.Kind, a, int32(in.Imm)); ok2 {
						*in = ir.Ins{Kind: ir.OpConst, Dst: in.Dst, Imm: int64(v)}
						changed = true
					}
				}
			}
			if in.Kind == ir.OpSetCond && in.UseImm {
				if a, ok := known[in.A]; ok {
					v := int32(0)
					if holdsInt(in.Cond, a, int32(in.Imm)) {
						v = 1
					}
					*in = ir.Ins{Kind: ir.OpConst, Dst: in.Dst, Imm: int64(v)}
					changed = true
				}
			}
			// Algebraic identities.
			if in.Kind == ir.OpAdd && in.UseImm && in.Imm == 0 {
				*in = ir.Ins{Kind: ir.OpMov, Dst: in.Dst, A: in.A}
				changed = true
			}
			if (in.Kind == ir.OpMul) && in.UseImm && in.Imm == 1 {
				*in = ir.Ins{Kind: ir.OpMov, Dst: in.Dst, A: in.A}
				changed = true
			}
			// Track definitions.
			di, df := in.Defs()
			if di != ir.None {
				if in.Kind == ir.OpConst {
					known[di] = int32(in.Imm)
				} else {
					delete(known, di)
				}
			}
			_ = df
		}
	}
	return changed
}

func evalALU(k ir.OpKind, a, b int32) (int32, bool) {
	switch k {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpSll:
		return a << (uint32(b) & 31), true
	case ir.OpSrl:
		return int32(uint32(a) >> (uint32(b) & 31)), true
	case ir.OpSra:
		return a >> (uint32(b) & 31), true
	}
	return 0, false
}

func holdsInt(c ir.Cond, a, b int32) bool {
	switch c {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT:
		return a < b
	case ir.CondLE:
		return a <= b
	case ir.CondGT:
		return a > b
	case ir.CondGE:
		return a >= b
	}
	return false
}

// ---- copy propagation ----

func copyProp(f *ir.Func) bool {
	changed := false
	copyOfI := map[ir.Reg]ir.Reg{}
	copyOfF := map[ir.Reg]ir.Reg{}
	for _, b := range f.Blocks {
		clear(copyOfI)
		clear(copyOfF)
		resolveI := func(r ir.Reg) ir.Reg {
			if s, ok := copyOfI[r]; ok {
				return s
			}
			return r
		}
		resolveF := func(r ir.Reg) ir.Reg {
			if s, ok := copyOfF[r]; ok {
				return s
			}
			return r
		}
		killI := func(r ir.Reg) {
			delete(copyOfI, r)
			for k, v := range copyOfI {
				if v == r {
					delete(copyOfI, k)
				}
			}
		}
		killF := func(r ir.Reg) {
			delete(copyOfF, r)
			for k, v := range copyOfF {
				if v == r {
					delete(copyOfF, k)
				}
			}
		}
		for i := range b.Ins {
			in := &b.Ins[i]
			// Rewrite sources.
			rewrite := func(p *ir.Reg, fl bool) {
				if *p == ir.None {
					return
				}
				var n ir.Reg
				if fl {
					n = resolveF(*p)
				} else {
					n = resolveI(*p)
				}
				if n != *p {
					*p = n
					changed = true
				}
			}
			rewrite(&in.A, false)
			rewrite(&in.B, false)
			rewrite(&in.FA, true)
			rewrite(&in.FB, true)
			for j := range in.Args {
				if in.Args[j].Float {
					rewrite(&in.Args[j].R, true)
				} else {
					rewrite(&in.Args[j].R, false)
				}
			}
			di, df := in.Defs()
			if di != ir.None {
				killI(di)
			}
			if df != ir.None {
				killF(df)
			}
			if in.Kind == ir.OpMov && in.Dst != in.A {
				copyOfI[in.Dst] = in.A
			}
			if in.Kind == ir.OpMovF && in.FDst != in.FA {
				copyOfF[in.FDst] = in.FA
			}
		}
	}
	return changed
}

// ---- local common subexpression elimination ----

type cseKey struct {
	kind   ir.OpKind
	a, b   ir.Reg
	fa, fb ir.Reg
	imm    int64
	fimm   float64
	useImm bool
	cond   ir.Cond
	sym    string
	slot   int
	off    int32
	size   int
}

func localCSE(f *ir.Func) bool {
	changed := false
	avail := map[cseKey]*ir.Ins{}
	var loads []cseKey // keys of loads, invalidated by stores/calls
	var is, fs []ir.Reg
	for _, b := range f.Blocks {
		clear(avail)
		loads = loads[:0]
		for i := range b.Ins {
			in := &b.Ins[i]
			switch in.Kind {
			case ir.OpStore, ir.OpStoreF, ir.OpCall:
				for _, k := range loads {
					delete(avail, k)
				}
				loads = loads[:0]
			}
			if !cseable(in.Kind) {
				// Kill expressions using a redefined register.
				di, df := in.Defs()
				killDefs(avail, &loads, di, df)
				continue
			}
			// Build the key from the registers the instruction actually
			// reads (unused operand fields are not reliably None).
			k := cseKey{kind: in.Kind, a: ir.None, b: ir.None, fa: ir.None,
				fb: ir.None, imm: in.Imm, fimm: in.FImm, useImm: in.UseImm,
				cond: in.Cond, sym: in.Sym, slot: in.Slot, off: in.Off,
				size: in.Size}
			is, fs = in.Uses(is[:0], fs[:0])
			if len(is) > 0 {
				k.a = is[0]
			}
			if len(is) > 1 {
				k.b = is[1]
			}
			if len(fs) > 0 {
				k.fa = fs[0]
			}
			if len(fs) > 1 {
				k.fb = fs[1]
			}
			if prev, ok := avail[k]; ok {
				di, df := in.Defs()
				pi, pf := prev.Defs()
				if di != ir.None && pi != ir.None {
					*in = ir.Ins{Kind: ir.OpMov, Dst: di, A: pi}
					changed = true
				} else if df != ir.None && pf != ir.None {
					*in = ir.Ins{Kind: ir.OpMovF, FDst: df, FA: pf}
					changed = true
				}
				di2, df2 := in.Defs()
				killDefs(avail, &loads, di2, df2)
				continue
			}
			di, df := in.Defs()
			killDefs(avail, &loads, di, df)
			// Only record if the destination is not also a source (else the
			// value is destroyed immediately).
			selfKill := false
			for _, r := range is {
				if di == r {
					selfKill = true
				}
			}
			for _, r := range fs {
				if df == r {
					selfKill = true
				}
			}
			if selfKill {
				continue
			}
			avail[k] = in
			if in.Kind == ir.OpLoad || in.Kind == ir.OpLoadF {
				loads = append(loads, k)
			}
		}
	}
	return changed
}

func cseable(k ir.OpKind) bool {
	switch k {
	case ir.OpConst, ir.OpConstF, ir.OpAddr, ir.OpSlotAddr, ir.OpSetCond,
		ir.OpSetCondF, ir.OpLoad, ir.OpLoadF, ir.OpCvIF, ir.OpCvFI,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFNeg:
		return true
	}
	return k.IsBinALU()
}

// killDefs removes available expressions that read or write redefined regs.
func killDefs(avail map[cseKey]*ir.Ins, loads *[]cseKey, di, df ir.Reg) {
	if di == ir.None && df == ir.None {
		return
	}
	for k, prev := range avail {
		pi, pf := prev.Defs()
		kill := false
		if di != ir.None && (k.a == di || k.b == di || pi == di) {
			kill = true
		}
		if df != ir.None && (k.fa == df || k.fb == df || pf == df) {
			kill = true
		}
		if kill {
			delete(avail, k)
			for j, lk := range *loads {
				if lk == k {
					*loads = append((*loads)[:j], (*loads)[j+1:]...)
					break
				}
			}
		}
	}
}

// ---- dead code elimination ----

func deadCode(f *ir.Func) bool {
	if err := f.BuildCFG(); err != nil {
		return false
	}
	intLive, fltLive := f.ComputeLiveness()
	liveI, liveF := ir.NewRegSet(f.NumInt), ir.NewRegSet(f.NumFloat)
	var is, fs []ir.Reg
	changed := false
	for bi, b := range f.Blocks {
		copy(liveI, intLive.Out[bi])
		copy(liveF, fltLive.Out[bi])
		// Walk backward, packing kept instructions against the block's
		// end (the write index never passes the read index), then slide
		// them to the front and clear the vacated tail.
		w := len(b.Ins)
		for i := len(b.Ins) - 1; i >= 0; i-- {
			in := &b.Ins[i]
			di, df := in.Defs()
			dead := pure(in.Kind) &&
				(di == ir.None || !liveI.Has(di)) &&
				(df == ir.None || !liveF.Has(df)) &&
				(di != ir.None || df != ir.None)
			if dead {
				changed = true
				continue
			}
			if di != ir.None {
				liveI.Remove(di)
			}
			if df != ir.None {
				liveF.Remove(df)
			}
			is, fs = in.Uses(is[:0], fs[:0])
			for _, r := range is {
				liveI.Add(r)
			}
			for _, r := range fs {
				liveF.Add(r)
			}
			w--
			if w != i {
				b.Ins[w] = *in
			}
		}
		if w > 0 {
			n := copy(b.Ins, b.Ins[w:])
			clear(b.Ins[n:])
			b.Ins = b.Ins[:n]
		}
	}
	return changed
}

// pure reports whether an op has no side effects beyond its register def.
func pure(k ir.OpKind) bool {
	switch k {
	case ir.OpConst, ir.OpConstF, ir.OpAddr, ir.OpSlotAddr, ir.OpMov,
		ir.OpMovF, ir.OpSetCond, ir.OpSetCondF, ir.OpLoad, ir.OpLoadF,
		ir.OpCvIF, ir.OpCvFI, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpFNeg:
		return true
	}
	return k.IsBinALU()
}

// ---- CFG simplification ----

func simplifyCFG(f *ir.Func) (bool, error) {
	changed := false
	// Fold constant conditional branches (after folding, OpBr with a
	// constant A operand appears as A defined by OpConst in same block).
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		if t.Kind == ir.OpBr && t.UseImm {
			if c, ok := constOf(b, t.A); ok {
				target := t.Targets[1]
				if holdsInt(t.Cond, c, int32(t.Imm)) {
					target = t.Targets[0]
				}
				*t = ir.Ins{Kind: ir.OpJump, Targets: []string{target}}
				changed = true
			}
		}
	}
	// Thread jumps-to-jumps: a block consisting solely of "jump L" can be
	// bypassed.
	trampoline := map[string]string{}
	for _, b := range f.Blocks {
		if len(b.Ins) == 1 && b.Ins[0].Kind == ir.OpJump {
			trampoline[b.Label] = b.Ins[0].Targets[0]
		}
	}
	// Chains are short: a slice, reused across lookups, finds a cycle.
	var seen []string
	resolve := func(l string) string {
		seen = seen[:0]
		for trampoline[l] != "" && !slices.Contains(seen, l) {
			seen = append(seen, l)
			l = trampoline[l]
		}
		return l
	}
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		for i, l := range t.Targets {
			if r := resolve(l); r != l {
				t.Targets[i] = r
				changed = true
			}
		}
		for i := range t.Cases {
			if r := resolve(t.Cases[i].Target); r != t.Cases[i].Target {
				t.Cases[i].Target = r
				changed = true
			}
		}
	}
	// Remove unreachable blocks.
	if err := f.BuildCFG(); err != nil {
		return changed, err
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if b.RPO >= 0 {
			kept = append(kept, b)
		} else {
			changed = true
		}
	}
	f.Blocks = kept
	return changed, f.BuildCFG()
}

// constOf scans the block for the last OpConst defining r before its
// terminator.
func constOf(b *ir.Block, r ir.Reg) (int32, bool) {
	var v int32
	found := false
	for i := range b.Ins[:len(b.Ins)-1] {
		in := &b.Ins[i]
		di, _ := in.Defs()
		if di == r {
			if in.Kind == ir.OpConst {
				v, found = int32(in.Imm), true
			} else {
				found = false
			}
		}
	}
	return v, found
}
