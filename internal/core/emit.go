package core

import (
	"fmt"
	"slices"
	"strconv"

	"branchreg/internal/codegen"
	"branchreg/internal/ir"
	"branchreg/internal/isa"
)

// GenBranchReg compiles an IR unit for the branch-register machine and
// links it compactly: GenBranchRegUnit, then isa.Link(u, 0).
func GenBranchReg(u *ir.Unit, cfg Config) (*isa.Program, error) {
	au, err := GenBranchRegUnit(u, cfg)
	if err != nil {
		return nil, err
	}
	return isa.Link(au, 0)
}

// GenBranchRegUnit compiles an IR unit for the branch-register machine
// into its pre-link form.
func GenBranchRegUnit(u *ir.Unit, cfg Config) (*isa.Unit, error) {
	au := &isa.Unit{Kind: isa.BranchReg}
	for _, d := range u.Data {
		au.Data = append(au.Data, codegen.ConvertDatum(d))
	}
	for _, f := range u.Funcs {
		fn, data, err := GenBRMFunc(f, cfg)
		if err != nil {
			return nil, err
		}
		au.Funcs = append(au.Funcs, fn)
		au.Data = append(au.Data, data...)
	}
	return au, nil
}

// mins wraps a machine instruction with transfer metadata used by the
// attachment and noop-replacement passes.
type mins struct {
	isa.Instr
	targetLabel string // static target of a transfer-carrying instruction
	isCond      bool   // transfer is the conditional via b[7]
	isCall      bool   // transfer is a call (carrier sits mid-block)
}

type mblock struct {
	irb *ir.Block
	ins []mins
}

// RA handling strategies.
type raMode int

const (
	raLeaf  raMode = iota // b[7] survives: return through it directly
	raBreg                // saved to a branch register at entry
	raStack               // spilled to the frame
)

type brmGen struct {
	g      *codegen.Gen
	f      *ir.Func
	cfg    Config
	caller []int // allocatable caller-saved branch registers
	callee []int // allocatable callee-saved branch registers
	allocs []*hoistAlloc
	mode   raMode
	raReg  int // raBreg: the register holding the return address
	blocks []*mblock
	cur    *mblock
	early  int // earliest position for local target calcs in cur
}

// GenBRMFunc compiles one function for the branch-register machine.
func GenBRMFunc(f *ir.Func, cfg Config) (*isa.Function, []*isa.DataItem, error) {
	m := codegen.BRMMachine()
	g := codegen.NewGen(&m, f)
	bg := &brmGen{g: g, f: f, cfg: cfg}
	bg.caller, bg.callee = cfg.allocatable()

	bg.planRA()
	bg.allocs = planHoisting(f, cfg, bg.caller, bg.callee)

	calleeBrs := usedCalleeBrs(bg.allocs)
	if bg.mode == raStack {
		g.ReserveSave("ra")
	}
	for _, b := range calleeBrs {
		g.ReserveSave(fmt.Sprintf("b%d", b))
	}
	g.Layout()

	mblocks := make([]mblock, len(f.Blocks))
	bg.blocks = make([]*mblock, len(f.Blocks))
	for bi, b := range f.Blocks {
		next := ""
		if bi+1 < len(f.Blocks) {
			next = f.Blocks[bi+1].Label
		}
		bg.cur = &mblocks[bi]
		bg.cur.irb = b
		bg.blocks[bi] = bg.cur
		if bi == 0 {
			bg.prologue(calleeBrs)
		}
		bg.flush()
		bg.early = len(bg.cur.ins)
		// Hoisted calculations placed in this block (preheaders).
		for _, h := range bg.allocs {
			if h.place == b {
				bg.emitCalc(h.breg, h.target, h.isCall)
			}
		}
		bg.flush()
		bg.early = len(bg.cur.ins)
		for i := range b.Ins {
			in := &b.Ins[i]
			switch {
			case in.Kind == ir.OpCall:
				if err := bg.lowerCall(in); err != nil {
					return nil, nil, err
				}
			case in.Kind.IsTerm():
				if err := bg.lowerTerm(in, next, calleeBrs); err != nil {
					return nil, nil, err
				}
			default:
				if err := g.LowerIns(in); err != nil {
					return nil, nil, err
				}
			}
		}
		bg.flush()
	}

	bg.attachCarriers()
	if cfg.ReplaceNoops {
		bg.replaceNoops()
	}
	return bg.flatten(), g.Data, nil
}

// planRA picks the return-address strategy (paper §4: save b[7] when the
// routine has branches other than a return).
func (bg *brmGen) planRA() {
	f := bg.f
	hasTransfers := false
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Kind != ir.OpRet {
			hasTransfers = true
		}
		for i := range b.Ins {
			if b.Ins[i].Kind == ir.OpCall && !b.Ins[i].Builtin {
				hasTransfers = true
			}
		}
	}
	switch {
	case !hasTransfers:
		bg.mode = raLeaf
	case !bg.g.HasCalls && len(bg.caller) > 0:
		// Keep the return address in a caller-saved branch register for
		// the whole body (Figure 4's b[1]=b[7]); the register is removed
		// from the hoisting planner's pool.
		bg.mode = raBreg
		bg.raReg = bg.caller[len(bg.caller)-1]
		bg.caller = bg.caller[:len(bg.caller)-1]
	default:
		bg.mode = raStack
	}
}

// flush drains the shared generator's buffer into the current block.
func (bg *brmGen) flush() {
	for _, in := range bg.g.TakeBuf() {
		bg.cur.ins = append(bg.cur.ins, mins{Instr: in})
	}
}

// emit appends one instruction (with metadata) to the current block.
func (bg *brmGen) emit(m mins) {
	bg.flush()
	bg.cur.ins = append(bg.cur.ins, m)
}

// insertEarly places instructions at the earliest legal point of the block
// when scheduling is enabled (prefetch distance, Figure 9); otherwise
// appends.
func (bg *brmGen) insertEarly(ms ...mins) {
	bg.flush()
	if !bg.cfg.Schedule {
		bg.cur.ins = append(bg.cur.ins, ms...)
		return
	}
	bg.cur.ins = slices.Insert(bg.cur.ins, bg.early, ms...)
	bg.early += len(ms)
}

// emitCalc emits the target-address calculation for label/function target
// into branch register breg, at the current position.
func (bg *brmGen) emitCalc(breg int, target string, isCall bool) {
	if isCall {
		// Far form: two instructions (paper §4's global address calc).
		bg.emit(mins{Instr: isa.Instr{Op: isa.OpSethi, Rd: bg.g.M.TmpReg, Target: target,
			Comment: "hi(" + target + ")"}})
		bg.emit(mins{Instr: isa.Instr{Op: isa.OpBrCalc, Rd: breg, Rs1: bg.g.M.TmpReg,
			Target: target, Comment: "b[" + itoa(breg) + "]=&" + target}})
		return
	}
	bg.emit(mins{Instr: isa.Instr{Op: isa.OpBrCalc, Rd: breg, Rs1: -1, Target: target,
		Comment: "b[" + itoa(breg) + "]=&" + target}})
}

// calcEarly emits a calculation at the block's early position.
func (bg *brmGen) calcEarly(breg int, target string, isCall bool) {
	if isCall {
		bg.insertEarly(
			mins{Instr: isa.Instr{Op: isa.OpSethi, Rd: bg.g.M.TmpReg, Target: target,
				Comment: "hi(" + target + ")"}},
			mins{Instr: isa.Instr{Op: isa.OpBrCalc, Rd: breg, Rs1: bg.g.M.TmpReg,
				Target: target, Comment: "b[" + itoa(breg) + "]=&" + target}})
		return
	}
	bg.insertEarly(mins{Instr: isa.Instr{Op: isa.OpBrCalc, Rd: breg, Rs1: -1, Target: target,
		Comment: "b[" + itoa(breg) + "]=&" + target}})
}

func itoa(v int) string { return strconv.Itoa(v) }

// prologue emits frame setup plus the BRM-specific return-address and
// branch-register saves.
func (bg *brmGen) prologue(calleeBrs []int) {
	g := bg.g
	g.EmitPrologue()
	bg.flush()
	switch bg.mode {
	case raBreg:
		bg.emit(mins{Instr: isa.Instr{Op: isa.OpMovBr, Rd: bg.raReg, BSrc: raBr,
			Comment: "save return address"}})
	case raStack:
		bg.emit(mins{Instr: isa.Instr{Op: isa.OpMovRB, Rd: g.M.TmpReg, BSrc: raBr,
			Comment: "save return address"}})
		g.EmitSPMem(isa.OpSw, g.M.TmpReg, g.Frame.SaveOff["ra"], "spill return address")
		bg.flush()
	}
	for _, b := range calleeBrs {
		bg.emit(mins{Instr: isa.Instr{Op: isa.OpMovRB, Rd: g.M.TmpReg, BSrc: b,
			Comment: fmt.Sprintf("save b%d", b)}})
		g.EmitSPMem(isa.OpSw, g.M.TmpReg, g.Frame.SaveOff[fmt.Sprintf("b%d", b)],
			fmt.Sprintf("spill b%d", b))
		bg.flush()
	}
}

// lowerCall emits a BRM call: target address in a branch register (hoisted
// or computed in the scratch register), argument moves, then a transfer
// carrier. The carrier rides on the last argument move when the attachment
// pass can merge it.
func (bg *brmGen) lowerCall(in *ir.Ins) error {
	g := bg.g
	if in.Builtin {
		if err := g.EmitBuiltin(in); err != nil {
			return err
		}
		bg.flush()
		return nil
	}
	h := lookupAlloc(bg.allocs, in.Sym, bg.cur.irb)
	breg := scratchBr
	if h != nil {
		breg = h.breg
	} else {
		bg.emitCalc(scratchBr, in.Sym, true)
	}
	g.EmitCallArgs(in)
	bg.flush()
	bg.emit(mins{Instr: isa.Instr{Op: isa.OpNop, BR: breg,
		Comment: "call " + in.Sym}, targetLabel: in.Sym, isCall: true})
	g.EmitCallResult(in)
	bg.flush()
	// Local calcs must stay after the call (b[1] is caller-saved).
	bg.early = len(bg.cur.ins)
	return nil
}

// condBreg prepares the branch register holding the taken target of a
// conditional transfer.
func (bg *brmGen) condBreg(target string) int {
	if h := lookupAlloc(bg.allocs, target, bg.cur.irb); h != nil {
		return h.breg
	}
	bg.calcEarly(scratchBr, target, false)
	return scratchBr
}

// emitCmpBr emits the compare-with-assignment plus the conditional carrier.
// Under the fast-compare alternative (§9) the compare transfers directly
// and no carrier is needed.
func (bg *brmGen) emitCmpBr(cmp isa.Instr, target string) {
	if bg.cfg.FastCompare {
		cmp.BR = raBr
		cmp.Comment = joinComment(cmp.Comment, "fast compare, cond jump "+target)
		bg.emit(mins{Instr: cmp, targetLabel: target, isCond: true})
		return
	}
	bg.emit(mins{Instr: cmp})
	bg.emit(mins{Instr: isa.Instr{Op: isa.OpNop, BR: raBr, Comment: "cond jump " + target},
		targetLabel: target, isCond: true})
}

// uncondTransfer emits an unconditional transfer to target.
func (bg *brmGen) uncondTransfer(target string) {
	if h := lookupAlloc(bg.allocs, target, bg.cur.irb); h != nil {
		bg.emit(mins{Instr: isa.Instr{Op: isa.OpNop, BR: h.breg, Comment: "jump " + target},
			targetLabel: target})
		return
	}
	bg.calcEarly(scratchBr, target, false)
	bg.emit(mins{Instr: isa.Instr{Op: isa.OpNop, BR: scratchBr, Comment: "jump " + target},
		targetLabel: target})
}

func (bg *brmGen) lowerTerm(t *ir.Ins, next string, calleeBrs []int) error {
	g := bg.g
	switch t.Kind {
	case ir.OpJump:
		if t.Targets[0] == next {
			return nil
		}
		bg.uncondTransfer(t.Targets[0])
		return nil

	case ir.OpBr, ir.OpBrF:
		cond := codegen.CondOf(t.Cond)
		trueL, falseL := t.Targets[0], t.Targets[1]
		if trueL == next {
			cond = cond.Negate()
			trueL, falseL = falseL, trueL
		}
		bsrc := bg.condBreg(trueL)
		var cmp isa.Instr
		if t.Kind == ir.OpBrF {
			ra := g.UseFloat(t.FA, 0)
			rb := g.UseFloat(t.FB, 1)
			cmp = isa.Instr{Op: isa.OpFCmpBr, Cond: cond, Rs1: ra, Rs2: rb, BSrc: bsrc}
		} else {
			ra := g.UseInt(t.A, 0)
			cmp = isa.Instr{Op: isa.OpCmpBr, Cond: cond, Rs1: ra, BSrc: bsrc}
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
		}
		bg.emitCmpBr(cmp, trueL)
		if falseL != next {
			bg.uncondTransferLate(falseL)
		}
		return nil

	case ir.OpSwitch:
		return bg.lowerSwitch(t, next)

	case ir.OpRet:
		g.RetValueMoves(t)
		bg.flush()
		retBr := raBr
		switch bg.mode {
		case raBreg:
			retBr = bg.raReg
		case raStack:
			g.EmitSPMem(isa.OpLw, g.M.TmpReg, g.Frame.SaveOff["ra"], "reload return address")
			bg.flush()
			bg.emit(mins{Instr: isa.Instr{Op: isa.OpMovBR, Rd: raBr, Rs1: g.M.TmpReg,
				Comment: "restore return address"}})
		}
		// Restore callee-saved branch registers.
		for _, b := range calleeBrs {
			g.EmitSPMem(isa.OpLw, g.M.TmpReg, g.Frame.SaveOff[fmt.Sprintf("b%d", b)],
				fmt.Sprintf("reload b%d", b))
			bg.flush()
			bg.emit(mins{Instr: isa.Instr{Op: isa.OpMovBR, Rd: b, Rs1: g.M.TmpReg,
				Comment: fmt.Sprintf("restore b%d", b)}})
		}
		g.EmitEpilogueRestores()
		bg.flush()
		bg.emit(mins{Instr: isa.Instr{Op: isa.OpNop, BR: retBr, Comment: "return"}})
		return nil
	}
	return fmt.Errorf("core: unknown terminator %v", t.Kind)
}

// uncondTransferLate emits a transfer whose calculation may not move before
// the preceding conditional transfer (the fallthrough-path jump of a
// two-way branch with no fallthrough successor).
func (bg *brmGen) uncondTransferLate(target string) {
	if h := lookupAlloc(bg.allocs, target, bg.cur.irb); h != nil {
		bg.emit(mins{Instr: isa.Instr{Op: isa.OpNop, BR: h.breg, Comment: "jump " + target},
			targetLabel: target})
		return
	}
	bg.emitCalc(scratchBr, target, false)
	bg.emit(mins{Instr: isa.Instr{Op: isa.OpNop, BR: scratchBr, Comment: "jump " + target},
		targetLabel: target})
}

func (bg *brmGen) lowerSwitch(t *ir.Ins, next string) error {
	g := bg.g
	plan := g.PlanSwitch(t)
	bg.flush()
	v := g.UseInt(t.A, 0)
	bg.flush()
	if !plan.Dense {
		for _, c := range plan.Cases {
			bsrc := bg.condBreg(c.Target)
			cmp := isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondEQ, Rs1: v, BSrc: bsrc}
			if g.M.FitsCmpImm(c.Val) {
				cmp.UseImm = true
				cmp.Imm = int32(c.Val)
			} else {
				g.MaterializeImm(g.M.Tmp2Reg, int32(c.Val))
				cmp.Rs2 = g.M.Tmp2Reg
			}
			bg.emitCmpBr(cmp, c.Target)
			// b[1] may be needed again for the next case: allow later
			// calcs to be placed after this transfer.
			bg.early = len(bg.cur.ins)
		}
		if plan.Default != next {
			bg.uncondTransferLate(plan.Default)
		}
		return nil
	}
	// Dense table: range checks against the default, then an indirect load
	// of the target (paper §4's switch statement implementation).
	tmp := g.M.TmpReg
	g.AddImm(tmp, v, int32(-plan.Min))
	bg.flush()
	defBr := bg.condBreg(plan.Default)
	bg.emitCmpBr(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondGT, Rs1: tmp, BSrc: defBr,
		UseImm: true, Imm: int32(plan.Max - plan.Min)}, plan.Default)
	bg.early = len(bg.cur.ins)
	// The register still holds the default target (the first check's
	// carrier touches only b[7]), so the second check reuses it.
	bg.emitCmpBr(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondLT, Rs1: tmp, BSrc: defBr,
		UseImm: true, Imm: 0}, plan.Default)
	bg.early = len(bg.cur.ins)
	g.Emit(isa.Instr{Op: isa.OpSll, Rd: tmp, Rs1: tmp, UseImm: true, Imm: 2})
	g.MaterializeAddr(g.M.Tmp2Reg, plan.TableLabel, 0)
	g.Emit(isa.Instr{Op: isa.OpAdd, Rd: g.M.Tmp2Reg, Rs1: g.M.Tmp2Reg, Rs2: tmp})
	bg.flush()
	bg.emit(mins{Instr: isa.Instr{Op: isa.OpBrLd, Rd: scratchBr, Rs1: g.M.Tmp2Reg,
		UseImm: true, Imm: 0, Comment: "load switch target"}})
	bg.emit(mins{Instr: isa.Instr{Op: isa.OpNop, BR: scratchBr, Comment: "switch dispatch"}})
	return nil
}
