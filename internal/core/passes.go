package core

import (
	"branchreg/internal/isa"
)

// writesBranchRegK reports whether the instruction writes branch register k.
func writesBranchRegK(in *isa.Instr, k int) bool {
	switch in.Op {
	case isa.OpBrCalc, isa.OpBrLd, isa.OpMovBr, isa.OpMovBR:
		return in.Rd == k
	case isa.OpCmpBr, isa.OpFCmpBr:
		return k == raBr
	}
	return false
}

// attachCarriers merges noop transfer carriers into the preceding
// instruction wherever legal: the previous instruction must not itself
// transfer, must not write the referenced branch register (the address
// must be computed before the reference, paper §8), and a conditional
// transfer must follow its compare (paper §4).
func (bg *brmGen) attachCarriers() {
	for _, blk := range bg.blocks {
		for i := 0; i < len(blk.ins); i++ {
			c := &blk.ins[i]
			if c.Op != isa.OpNop || c.BR == pcBr {
				continue
			}
			if i == 0 {
				continue
			}
			prev := &blk.ins[i-1]
			if prev.BR != pcBr || prev.Op == isa.OpNop {
				continue
			}
			if writesBranchRegK(&prev.Instr, c.BR) {
				continue
			}
			// The exit trap must not become a transfer (the program ends
			// there).
			if prev.Op == isa.OpTrap && prev.Imm == isa.TrapExit {
				continue
			}
			prev.BR = c.BR
			prev.targetLabel = c.targetLabel
			prev.isCond = c.isCond
			prev.isCall = c.isCall
			prev.Comment = joinComment(prev.Comment, c.Comment)
			blk.ins = append(blk.ins[:i], blk.ins[i+1:]...)
			i--
		}
	}
}

func joinComment(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "; " + b
}

// replaceNoops fills remaining noop carriers with branch target address
// calculations pending at the head of a successor block (paper §5: "the
// compiler attempts to replace no-operation instructions that occur at
// transfers of control with branch target address calculations").
func (bg *brmGen) replaceNoops() {
	byLabel := map[string]*mblock{}
	for _, blk := range bg.blocks {
		byLabel[blk.irb.Label] = blk
	}
	for bi, blk := range bg.blocks {
		for i := 0; i < len(blk.ins); i++ {
			c := &blk.ins[i]
			if c.Op != isa.OpNop || c.BR == pcBr || c.isCall {
				continue
			}
			// Only the block-terminating carrier may be filled: the
			// successor-block reasoning below is wrong for mid-block
			// transfers (switch range checks, two-way branches with no
			// fallthrough), whose "fallthrough" is the rest of their own
			// block.
			if i != len(blk.ins)-1 {
				continue
			}
			var pulled *mins
			if c.isCond {
				// Executes on both paths: only scratch calculations (dead
				// at every block entry) are safe. Candidates: the taken
				// target and the fallthrough block.
				var cands [2]*mblock
				cands[0] = byLabel[c.targetLabel]
				if bi+1 < len(bg.blocks) {
					cands[1] = bg.blocks[bi+1]
				}
				for _, s := range cands {
					if s == nil || len(s.irb.Preds) != 1 || s.irb.Preds[0] != blk.irb {
						continue
					}
					if p := headCalc(s, true); p != nil {
						pulled = p
						s.ins = s.ins[1:]
						break
					}
				}
			} else if c.targetLabel != "" {
				// Executes only on the path into the target block.
				s := byLabel[c.targetLabel]
				if s != nil && len(s.irb.Preds) == 1 && s.irb.Preds[0] == blk.irb {
					if p := headCalc(s, false); p != nil && p.Rd != c.BR {
						pulled = p
						s.ins = s.ins[1:]
					}
				}
			}
			if pulled == nil {
				continue
			}
			pulled.BR = c.BR
			pulled.targetLabel = c.targetLabel
			pulled.isCond = c.isCond
			pulled.Comment = joinComment(pulled.Comment, "replaces noop")
			blk.ins[i] = *pulled
		}
	}
}

// headCalc returns the first instruction of the block if it is a
// PC-relative target calculation eligible for pulling (scratchOnly
// restricts to the scratch register, required when the pull executes on
// both paths of a conditional).
func headCalc(blk *mblock, scratchOnly bool) *mins {
	if len(blk.ins) == 0 {
		return nil
	}
	h := blk.ins[0]
	if h.Op != isa.OpBrCalc || h.Rs1 >= 0 || h.BR != pcBr {
		return nil
	}
	if scratchOnly && h.Rd != scratchBr {
		return nil
	}
	return &h
}

// flatten converts the block list into a linkable function.
func (bg *brmGen) flatten() *isa.Function {
	out := isa.NewFunction(bg.f.Name, isa.BranchReg)
	n := 0
	for _, blk := range bg.blocks {
		n += len(blk.ins)
	}
	out.Code = make([]isa.Instr, 0, n)
	for _, blk := range bg.blocks {
		out.Bind(blk.irb.Label)
		for _, m := range blk.ins {
			in := m.Instr
			// Carriers store their target in wrapper metadata, not in the
			// instruction; only calculation/branch ops carry symbol
			// targets into the linker.
			out.Emit(in)
		}
	}
	return out
}
