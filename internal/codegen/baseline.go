package codegen

import (
	"fmt"

	"branchreg/internal/ir"
	"branchreg/internal/isa"
)

// GenBaseline compiles an IR unit for the baseline machine and links it
// compactly: GenBaselineUnit, then isa.Link(u, 0).
func GenBaseline(u *ir.Unit) (*isa.Program, error) {
	au, err := GenBaselineUnit(u)
	if err != nil {
		return nil, err
	}
	return isa.Link(au, 0)
}

// GenBaselineUnit compiles an IR unit for the baseline machine into its
// pre-link form: a conventional RISC with compare/branch instructions and
// one delayed-branch slot. Slot filling happens at emission time: when the
// instruction preceding a branch is independent of it, the instruction
// moves into the slot; otherwise a noop fills it (paper §2, §7).
func GenBaselineUnit(u *ir.Unit) (*isa.Unit, error) {
	au := &isa.Unit{Kind: isa.Baseline}
	for _, d := range u.Data {
		au.Data = append(au.Data, ConvertDatum(d))
	}
	for _, f := range u.Funcs {
		fn, data, err := GenBaselineFunc(f)
		if err != nil {
			return nil, err
		}
		au.Funcs = append(au.Funcs, fn)
		au.Data = append(au.Data, data...)
	}
	return au, nil
}

// ConvertDatum converts an IR datum to a linkable data item.
func ConvertDatum(d ir.Datum) *isa.DataItem {
	out := &isa.DataItem{Label: d.Label, Align: d.Align}
	switch d.Kind {
	case ir.DWords:
		out.Kind = isa.DataWords
		out.Words = d.Words
		for _, r := range d.Relocs {
			out.Relocs = append(out.Relocs, isa.DataReloc{WordIndex: r.WordIndex, Sym: r.Sym})
		}
	case ir.DBytes:
		out.Kind = isa.DataBytes
		out.Bytes = d.Bytes
	case ir.DFloats:
		out.Kind = isa.DataFloat
		out.Floats = d.Floats
	case ir.DZero:
		out.Kind = isa.DataZero
		out.Size = d.Size
	}
	return out
}

type baseGen struct {
	*Gen
	out *isa.Function
}

// GenBaselineFunc compiles one function for the baseline machine.
func GenBaselineFunc(f *ir.Func) (*isa.Function, []*isa.DataItem, error) {
	m := BaselineMachine()
	g := NewGen(&m, f)
	if g.HasCalls {
		g.ReserveSave("ra")
	}
	g.Layout()
	bg := &baseGen{Gen: g, out: isa.NewFunction(f.Name, isa.Baseline)}

	for bi, b := range f.Blocks {
		next := ""
		if bi+1 < len(f.Blocks) {
			next = f.Blocks[bi+1].Label
		}
		if bi == 0 {
			g.EmitPrologue()
			if g.HasCalls {
				g.Emit(isa.Instr{Op: isa.OpSw, Rd: m.RAReg, Rs1: m.SPReg, UseImm: true,
					Imm: g.Frame.SaveOff["ra"], Comment: "save ra"})
			}
		}
		for i := range b.Ins {
			in := &b.Ins[i]
			switch {
			case in.Kind == ir.OpCall:
				if err := bg.lowerCall(in); err != nil {
					return nil, nil, err
				}
			case in.Kind.IsTerm():
				if err := bg.lowerTerm(in, next); err != nil {
					return nil, nil, err
				}
			default:
				if err := g.LowerIns(in); err != nil {
					return nil, nil, err
				}
			}
		}
		bg.out.Bind(b.Label)
		for _, mi := range g.TakeBuf() {
			bg.out.Emit(mi)
		}
	}
	return bg.out, g.Data, nil
}

// emitBranchWithSlot emits a control-transfer instruction, trying to move
// the preceding instruction into its delay slot. blocked reports whether a
// candidate instruction may not move past/after the branch (reads it would
// disturb); extra instructions that must stay glued immediately before the
// branch (the compare) are passed in pre.
func (bg *baseGen) emitBranchWithSlot(pre []isa.Instr, br isa.Instr, blocked func(cand *isa.Instr) bool) {
	g := bg.Gen
	var cand *isa.Instr
	if n := len(g.Buf); n > 0 {
		c := g.Buf[n-1]
		// An instruction that already sits in a previous branch's delay
		// slot must stay put.
		inSlot := n >= 2 && g.Buf[n-2].Op.IsBaselineBranch()
		if !inSlot && slotSafe(&c) && !blocked(&c) && !conflictsWithPre(&c, pre) {
			cand = &c
			g.Buf = g.Buf[:n-1]
		}
	}
	for _, p := range pre {
		g.Emit(p)
	}
	g.Emit(br)
	if cand != nil {
		cand.Comment = appendComment(cand.Comment, "delay slot filled")
		g.Emit(*cand)
	} else {
		g.Emit(isa.Instr{Op: isa.OpNop, Comment: "delay slot"})
	}
}

func appendComment(c, extra string) string {
	if c == "" {
		return extra
	}
	return c + "; " + extra
}

// slotSafe reports whether an instruction may sit in a delay slot at all.
func slotSafe(in *isa.Instr) bool {
	switch in.Op {
	case isa.OpNop, isa.OpTrap, isa.OpB, isa.OpCall, isa.OpJr, isa.OpJalr,
		isa.OpCmp, isa.OpFcmp:
		return false
	}
	return true
}

// writesInt returns the integer register the instruction writes, or -1.
func writesInt(in *isa.Instr) int {
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSethi,
		isa.OpLw, isa.OpLb, isa.OpSet, isa.OpFSet, isa.OpCvtfi:
		return in.Rd
	}
	return -1
}

// readsInt collects integer registers the instruction reads.
func readsInt(in *isa.Instr) []int {
	var out []int
	add := func(r int) {
		if r >= 0 {
			out = append(out, r)
		}
	}
	switch in.Op {
	case isa.OpSw, isa.OpSb:
		add(in.Rd)
		add(in.Rs1)
		if !in.UseImm {
			add(in.Rs2)
		}
	case isa.OpSf, isa.OpLf, isa.OpLw, isa.OpLb:
		add(in.Rs1)
		if !in.UseImm {
			add(in.Rs2)
		}
	case isa.OpSethi:
	case isa.OpCvtif:
		add(in.Rs1)
	case isa.OpJr, isa.OpJalr:
		add(in.Rs1)
	default:
		if in.Op.IsALU() || in.Op == isa.OpSet || in.Op == isa.OpCmp {
			add(in.Rs1)
			if !in.UseImm {
				add(in.Rs2)
			}
		}
	}
	return out
}

// conflictsWithPre reports whether moving cand after pre (the glued
// compare) would change semantics: cand writing a register pre reads, or
// pre writing a register cand reads (CC is handled by slotSafe excluding
// compares from slots and blocked() for branches).
func conflictsWithPre(cand *isa.Instr, pre []isa.Instr) bool {
	w := writesInt(cand)
	for i := range pre {
		p := &pre[i]
		if w >= 0 {
			for _, r := range readsInt(p) {
				if r == w {
					return true
				}
			}
		}
		if pw := writesInt(p); pw >= 0 {
			for _, r := range readsInt(cand) {
				if r == pw {
					return true
				}
			}
		}
		// Float hazards: compares read float registers.
		if p.Op == isa.OpFcmp && writesFloat(cand) >= 0 {
			if wf := writesFloat(cand); wf == p.Rs1 || wf == p.Rs2 {
				return true
			}
		}
	}
	return false
}

func writesFloat(in *isa.Instr) int {
	switch in.Op {
	case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv, isa.OpFneg,
		isa.OpFmov, isa.OpCvtif, isa.OpLf:
		return in.Rd
	}
	return -1
}

func (bg *baseGen) lowerCall(in *ir.Ins) error {
	g := bg.Gen
	if in.Builtin {
		return g.EmitBuiltin(in)
	}
	g.EmitCallArgs(in)
	// The call writes the link register before the slot executes, so the
	// slot may neither write nor read it.
	bg.emitBranchWithSlot(nil,
		isa.Instr{Op: isa.OpCall, Target: in.Sym},
		func(c *isa.Instr) bool { return touchesReg(c, g.M.RAReg) })
	g.EmitCallResult(in)
	return nil
}

// touchesReg reports whether the instruction reads or writes integer
// register r.
func touchesReg(in *isa.Instr, r int) bool {
	if writesInt(in) == r {
		return true
	}
	for _, x := range readsInt(in) {
		if x == r {
			return true
		}
	}
	return false
}

func (bg *baseGen) lowerTerm(t *ir.Ins, next string) error {
	g := bg.Gen
	switch t.Kind {
	case ir.OpJump:
		if t.Targets[0] == next {
			return nil // fallthrough
		}
		bg.emitBranchWithSlot(nil,
			isa.Instr{Op: isa.OpB, Cond: isa.CondAlways, Target: t.Targets[0]},
			func(*isa.Instr) bool { return false })
		return nil

	case ir.OpBr:
		ra := g.UseInt(t.A, 0)
		cmp := isa.Instr{Op: isa.OpCmp, Rs1: ra}
		if t.UseImm {
			if g.M.FitsCmpImm(t.Imm) {
				cmp.UseImm = true
				cmp.Imm = int32(t.Imm)
			} else {
				g.MaterializeImm(g.M.Tmp2Reg, int32(t.Imm))
				cmp.Rs2 = g.M.Tmp2Reg
			}
		} else {
			cmp.Rs2 = g.UseInt(t.B, 1)
		}
		return bg.emitCondBranch(t, cmp, CondOf(t.Cond), next)

	case ir.OpBrF:
		ra := g.UseFloat(t.FA, 0)
		rb := g.UseFloat(t.FB, 1)
		cmp := isa.Instr{Op: isa.OpFcmp, Rs1: ra, Rs2: rb}
		return bg.emitCondBranch(t, cmp, CondOf(t.Cond), next)

	case ir.OpSwitch:
		return bg.lowerSwitch(t, next)

	case ir.OpRet:
		g.RetValueMoves(t)
		if g.HasCalls {
			g.EmitSPMem(isa.OpLw, g.M.RAReg, g.Frame.SaveOff["ra"], "restore ra")
		}
		g.EmitEpilogueRestores()
		bg.emitBranchWithSlot(nil,
			isa.Instr{Op: isa.OpJr, Rs1: g.M.RAReg, Comment: "return"},
			func(c *isa.Instr) bool { return writesInt(c) == g.M.RAReg })
		return nil
	}
	return fmt.Errorf("codegen: unknown terminator %v", t.Kind)
}

// emitCondBranch lowers a two-way branch with the compare glued before it.
func (bg *baseGen) emitCondBranch(t *ir.Ins, cmp isa.Instr, cond isa.Cond, next string) error {
	trueL, falseL := t.Targets[0], t.Targets[1]
	if trueL == next {
		// Invert so the taken path is the out-of-line one.
		cond = cond.Negate()
		trueL, falseL = falseL, trueL
	}
	bg.emitBranchWithSlot([]isa.Instr{cmp},
		isa.Instr{Op: isa.OpB, Cond: cond, Target: trueL},
		func(c *isa.Instr) bool { return false })
	if falseL != next {
		bg.emitBranchWithSlot(nil,
			isa.Instr{Op: isa.OpB, Cond: isa.CondAlways, Target: falseL},
			func(*isa.Instr) bool { return false })
	}
	return nil
}

func (bg *baseGen) lowerSwitch(t *ir.Ins, next string) error {
	g := bg.Gen
	plan := g.PlanSwitch(t)
	v := g.UseInt(t.A, 0)
	if !plan.Dense {
		// Compare chain.
		for _, c := range plan.Cases {
			cmp := isa.Instr{Op: isa.OpCmp, Rs1: v}
			if g.M.FitsCmpImm(c.Val) {
				cmp.UseImm = true
				cmp.Imm = int32(c.Val)
			} else {
				g.MaterializeImm(g.M.Tmp2Reg, int32(c.Val))
				cmp.Rs2 = g.M.Tmp2Reg
			}
			g.Emit(cmp)
			g.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondEQ, Target: c.Target})
			g.Emit(isa.Instr{Op: isa.OpNop, Comment: "delay slot"})
		}
		if plan.Default != next {
			bg.emitBranchWithSlot(nil,
				isa.Instr{Op: isa.OpB, Cond: isa.CondAlways, Target: plan.Default},
				func(*isa.Instr) bool { return false })
		}
		return nil
	}
	// Jump table: range check, scale, load, indirect jump (paper §4).
	tmp := g.M.TmpReg
	g.AddImm(tmp, v, int32(-plan.Min))
	g.Emit(isa.Instr{Op: isa.OpCmp, Rs1: tmp, UseImm: true, Imm: int32(plan.Max - plan.Min)})
	g.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondGT, Target: plan.Default})
	g.Emit(isa.Instr{Op: isa.OpNop, Comment: "delay slot"})
	g.Emit(isa.Instr{Op: isa.OpCmp, Rs1: tmp, UseImm: true, Imm: 0})
	g.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondLT, Target: plan.Default})
	g.Emit(isa.Instr{Op: isa.OpNop, Comment: "delay slot"})
	g.Emit(isa.Instr{Op: isa.OpSll, Rd: tmp, Rs1: tmp, UseImm: true, Imm: 2})
	g.MaterializeAddr(g.M.Tmp2Reg, plan.TableLabel, 0)
	g.Emit(isa.Instr{Op: isa.OpLw, Rd: g.M.Tmp2Reg, Rs1: g.M.Tmp2Reg, Rs2: tmp,
		Comment: "load switch target"})
	g.Emit(isa.Instr{Op: isa.OpJr, Rs1: g.M.Tmp2Reg, Comment: "switch dispatch"})
	g.Emit(isa.Instr{Op: isa.OpNop, Comment: "delay slot"})
	return nil
}
