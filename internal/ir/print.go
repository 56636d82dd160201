package ir

import (
	"fmt"
	"strings"
)

// String renders the instruction in a readable single-line form.
func (in *Ins) String() string {
	rhs := func() string {
		if in.UseImm {
			return fmt.Sprintf("%d", in.Imm)
		}
		return fmt.Sprintf("v%d", in.B)
	}
	switch in.Kind {
	case OpConst:
		return fmt.Sprintf("v%d = %d", in.Dst, in.Imm)
	case OpConstF:
		return fmt.Sprintf("fv%d = %g", in.FDst, in.FImm)
	case OpAddr:
		if in.Off != 0 {
			return fmt.Sprintf("v%d = &%s+%d", in.Dst, in.Sym, in.Off)
		}
		return fmt.Sprintf("v%d = &%s", in.Dst, in.Sym)
	case OpSlotAddr:
		return fmt.Sprintf("v%d = &slot%d+%d", in.Dst, in.Slot, in.Off)
	case OpMov:
		return fmt.Sprintf("v%d = v%d", in.Dst, in.A)
	case OpMovF:
		return fmt.Sprintf("fv%d = fv%d", in.FDst, in.FA)
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		sym := map[OpKind]string{OpFAdd: "+", OpFSub: "-", OpFMul: "*", OpFDiv: "/"}[in.Kind]
		return fmt.Sprintf("fv%d = fv%d %s fv%d", in.FDst, in.FA, sym, in.FB)
	case OpFNeg:
		return fmt.Sprintf("fv%d = -fv%d", in.FDst, in.FA)
	case OpCvIF:
		return fmt.Sprintf("fv%d = (float)v%d", in.FDst, in.A)
	case OpCvFI:
		return fmt.Sprintf("v%d = (int)fv%d", in.Dst, in.FA)
	case OpSetCond:
		return fmt.Sprintf("v%d = v%d %s %s", in.Dst, in.A, in.Cond, rhs())
	case OpSetCondF:
		return fmt.Sprintf("v%d = fv%d %s fv%d", in.Dst, in.FA, in.Cond, in.FB)
	case OpLoad:
		return fmt.Sprintf("v%d = M%d[v%d+%d]", in.Dst, in.Size, in.A, in.Off)
	case OpLoadF:
		return fmt.Sprintf("fv%d = MF[v%d+%d]", in.FDst, in.A, in.Off)
	case OpStore:
		return fmt.Sprintf("M%d[v%d+%d] = v%d", in.Size, in.A, in.Off, in.B)
	case OpStoreF:
		return fmt.Sprintf("MF[v%d+%d] = fv%d", in.A, in.Off, in.FB)
	case OpCall:
		var args []string
		for _, a := range in.Args {
			if a.Float {
				args = append(args, fmt.Sprintf("fv%d", a.R))
			} else {
				args = append(args, fmt.Sprintf("v%d", a.R))
			}
		}
		pre := ""
		if in.Dst != None {
			pre = fmt.Sprintf("v%d = ", in.Dst)
		} else if in.FDst != None {
			pre = fmt.Sprintf("fv%d = ", in.FDst)
		}
		return fmt.Sprintf("%scall %s(%s)", pre, in.Sym, strings.Join(args, ", "))
	case OpJump:
		return "jump " + in.Targets[0]
	case OpBr:
		return fmt.Sprintf("br v%d %s %s ? %s : %s", in.A, in.Cond, rhs(), in.Targets[0], in.Targets[1])
	case OpBrF:
		return fmt.Sprintf("brf fv%d %s fv%d ? %s : %s", in.FA, in.Cond, in.FB, in.Targets[0], in.Targets[1])
	case OpSwitch:
		var cs []string
		for _, c := range in.Cases {
			cs = append(cs, fmt.Sprintf("%d:%s", c.Val, c.Target))
		}
		return fmt.Sprintf("switch v%d [%s] default %s", in.A, strings.Join(cs, " "), in.Targets[0])
	case OpRet:
		if in.A != None {
			return fmt.Sprintf("ret v%d", in.A)
		}
		if in.FA != None {
			return fmt.Sprintf("ret fv%d", in.FA)
		}
		return "ret"
	}
	if in.Kind.IsBinALU() {
		sym := map[OpKind]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
			OpRem: "%", OpAnd: "&", OpOr: "|", OpXor: "^", OpSll: "<<",
			OpSrl: ">>>", OpSra: ">>"}[in.Kind]
		return fmt.Sprintf("v%d = v%d %s %s", in.Dst, in.A, sym, rhs())
	}
	return fmt.Sprintf("<%s>", in.Kind)
}

// String renders the function body.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (int vregs %d, float vregs %d)\n", f.Name, f.NumInt, f.NumFloat)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:", blk.Label)
		if blk.Depth > 0 {
			fmt.Fprintf(&b, " ; depth %d", blk.Depth)
		}
		b.WriteByte('\n')
		for i := range blk.Ins {
			fmt.Fprintf(&b, "\t%s\n", blk.Ins[i].String())
		}
	}
	return b.String()
}

// Verify checks structural invariants: every block non-empty, terminators
// only at block ends, CFG targets resolvable, and vreg numbers in range.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: %s: no blocks", f.Name)
	}
	seen := make(map[string]bool, len(f.Blocks))
	var ibuf, fbuf []Reg
	for _, b := range f.Blocks {
		if seen[b.Label] {
			return fmt.Errorf("ir: %s: duplicate label %s", f.Name, b.Label)
		}
		seen[b.Label] = true
		if len(b.Ins) == 0 {
			return fmt.Errorf("ir: %s: block %s is empty", f.Name, b.Label)
		}
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.Kind.IsTerm() != (i == len(b.Ins)-1) {
				return fmt.Errorf("ir: %s: block %s: terminator in middle or missing at end (ins %d: %s)",
					f.Name, b.Label, i, in)
			}
			ibuf, fbuf = in.Uses(ibuf[:0], fbuf[:0])
			di, df := in.Defs()
			if di != None {
				ibuf = append(ibuf, di)
			}
			if df != None {
				fbuf = append(fbuf, df)
			}
			for _, r := range ibuf {
				if int(r) >= f.NumInt {
					return fmt.Errorf("ir: %s: block %s: v%d out of range (%d)", f.Name, b.Label, r, f.NumInt)
				}
			}
			for _, r := range fbuf {
				if int(r) >= f.NumFloat {
					return fmt.Errorf("ir: %s: block %s: fv%d out of range (%d)", f.Name, b.Label, r, f.NumFloat)
				}
			}
			if in.Kind == OpSlotAddr && (in.Slot < 0 || int(in.Slot) >= len(f.Slots)) {
				return fmt.Errorf("ir: %s: block %s: slot %d out of range", f.Name, b.Label, in.Slot)
			}
		}
	}
	for _, b := range f.Blocks {
		t := b.Term()
		check := func(l string) error {
			if !seen[l] {
				return fmt.Errorf("ir: %s: block %s targets unknown label %s", f.Name, b.Label, l)
			}
			return nil
		}
		for _, l := range t.Targets {
			if err := check(l); err != nil {
				return err
			}
		}
		for _, c := range t.Cases {
			if err := check(c.Target); err != nil {
				return err
			}
		}
	}
	return nil
}
