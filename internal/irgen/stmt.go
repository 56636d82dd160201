package irgen

import (
	"fmt"

	"branchreg/internal/ir"
	"branchreg/internal/mc"
)

func (g *gen) stmt(s mc.Stmt) error {
	switch st := s.(type) {
	case *mc.Empty:
		return nil
	case *mc.Block:
		for _, sub := range st.Stmts {
			if err := g.stmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *mc.DeclStmt:
		for _, d := range st.Decls {
			if err := g.localDecl(d); err != nil {
				return err
			}
		}
		return nil
	case *mc.ExprStmt:
		_, err := g.exprForEffect(st.X)
		return err
	case *mc.If:
		return g.ifStmt(st)
	case *mc.While:
		return g.whileStmt(st)
	case *mc.DoWhile:
		return g.doWhileStmt(st)
	case *mc.For:
		return g.forStmt(st)
	case *mc.Switch:
		return g.switchStmt(st)
	case *mc.Break:
		if len(g.breakTo) == 0 {
			return fmt.Errorf("irgen: break outside loop")
		}
		g.jumpTo(g.breakTo[len(g.breakTo)-1])
		g.startBlock(g.label())
		return nil
	case *mc.Continue:
		if len(g.contTo) == 0 {
			return fmt.Errorf("irgen: continue outside loop")
		}
		g.jumpTo(g.contTo[len(g.contTo)-1])
		g.startBlock(g.label())
		return nil
	case *mc.Return:
		return g.returnStmt(st)
	}
	return fmt.Errorf("irgen: unknown statement %T", s)
}

func (g *gen) localDecl(d *mc.VarDecl) error {
	sym := d.Sym
	t := sym.Type
	isAggregate := t.Kind == mc.TArray
	if isAggregate || g.addrTaken[sym] {
		slot := g.newSlot(sym.Name, int32(t.Size()), int32(t.Align()))
		g.slotOf[sym] = slot
		if d.Init == nil {
			return nil
		}
		return g.initSlot(slot, t, d.Init)
	}
	// Scalar in a vreg.
	var r ir.Reg
	if t.Kind == mc.TFloat {
		r = g.f.NewFloatReg()
	} else {
		r = g.f.NewIntReg()
	}
	g.vregOf[sym] = r
	if d.Init == nil {
		// Define the register so liveness never sees an undefined use.
		if t.Kind == mc.TFloat {
			g.emit(ir.Ins{Kind: ir.OpConstF, FDst: r, FImm: 0})
		} else {
			g.emit(ir.Ins{Kind: ir.OpConst, Dst: r, Imm: 0})
		}
		return nil
	}
	v, isF, err := g.expr(d.Init.Expr)
	if err != nil {
		return err
	}
	v, isF = g.convert(v, isF, d.Init.Expr.Type(), t)
	if t.Kind == mc.TFloat {
		g.emit(ir.Ins{Kind: ir.OpMovF, FDst: r, FA: v})
	} else {
		g.emit(ir.Ins{Kind: ir.OpMov, Dst: r, A: v})
		if t.Kind == mc.TChar {
			g.narrowChar(r)
		}
	}
	_ = isF
	return nil
}

// initSlot stores an initializer into a stack slot, element by element.
func (g *gen) initSlot(slot int32, t *mc.Type, init *mc.Initializer) error {
	base := g.f.NewIntReg()
	g.emit(ir.Ins{Kind: ir.OpSlotAddr, Dst: base, Slot: slot})
	return g.initMem(base, 0, t, init)
}

func (g *gen) initMem(base ir.Reg, off int32, t *mc.Type, init *mc.Initializer) error {
	if init.List != nil {
		if t.Kind != mc.TArray {
			return fmt.Errorf("irgen: brace initializer for non-array local")
		}
		esz := int32(t.Elem.Size())
		for i, sub := range init.List {
			if err := g.initMem(base, off+int32(i)*esz, t.Elem, sub); err != nil {
				return err
			}
		}
		return nil
	}
	if s, ok := init.Expr.(*mc.StrLit); ok && t.Kind == mc.TArray && t.Elem.Kind == mc.TChar {
		// Copy the string bytes (including NUL) into the array.
		for i := 0; i <= len(s.Value) && i < t.Len; i++ {
			var b byte
			if i < len(s.Value) {
				b = s.Value[i]
			}
			c := g.f.NewIntReg()
			g.emit(ir.Ins{Kind: ir.OpConst, Dst: c, Imm: int64(int8(b))})
			g.emit(ir.Ins{Kind: ir.OpStore, A: base, B: c, Off: off + int32(i), Size: 1})
		}
		return nil
	}
	v, isF, err := g.expr(init.Expr)
	if err != nil {
		return err
	}
	v, _ = g.convert(v, isF, init.Expr.Type(), t)
	if t.Kind == mc.TFloat {
		g.emit(ir.Ins{Kind: ir.OpStoreF, A: base, FB: v, Off: off, Size: 8})
	} else {
		g.emit(ir.Ins{Kind: ir.OpStore, A: base, B: v, Off: off, Size: memSize(t)})
	}
	return nil
}

func (g *gen) ifStmt(st *mc.If) error {
	thenL := g.label()
	endL := g.label()
	elseL := endL
	if st.Else != nil {
		elseL = g.label()
	}
	if err := g.cond(st.Cond, thenL, elseL); err != nil {
		return err
	}
	g.startBlock(thenL)
	if err := g.stmt(st.Then); err != nil {
		return err
	}
	g.jumpTo(endL)
	if st.Else != nil {
		g.startBlock(elseL)
		if err := g.stmt(st.Else); err != nil {
			return err
		}
		g.jumpTo(endL)
	}
	g.startBlock(endL)
	return nil
}

func (g *gen) whileStmt(st *mc.While) error {
	headL, bodyL, endL := g.label(), g.label(), g.label()
	g.jumpTo(headL)
	g.startBlock(headL)
	if err := g.cond(st.Cond, bodyL, endL); err != nil {
		return err
	}
	g.startBlock(bodyL)
	g.breakTo = append(g.breakTo, endL)
	g.contTo = append(g.contTo, headL)
	err := g.stmt(st.Body)
	g.breakTo = g.breakTo[:len(g.breakTo)-1]
	g.contTo = g.contTo[:len(g.contTo)-1]
	if err != nil {
		return err
	}
	g.jumpTo(headL)
	g.startBlock(endL)
	return nil
}

func (g *gen) doWhileStmt(st *mc.DoWhile) error {
	bodyL, condL, endL := g.label(), g.label(), g.label()
	g.jumpTo(bodyL)
	g.startBlock(bodyL)
	g.breakTo = append(g.breakTo, endL)
	g.contTo = append(g.contTo, condL)
	err := g.stmt(st.Body)
	g.breakTo = g.breakTo[:len(g.breakTo)-1]
	g.contTo = g.contTo[:len(g.contTo)-1]
	if err != nil {
		return err
	}
	g.jumpTo(condL)
	g.startBlock(condL)
	if err := g.cond(st.Cond, bodyL, endL); err != nil {
		return err
	}
	g.startBlock(endL)
	return nil
}

func (g *gen) forStmt(st *mc.For) error {
	if st.Init != nil {
		if err := g.stmt(st.Init); err != nil {
			return err
		}
	}
	headL, bodyL, postL, endL := g.label(), g.label(), g.label(), g.label()
	g.jumpTo(headL)
	g.startBlock(headL)
	if st.Cond != nil {
		if err := g.cond(st.Cond, bodyL, endL); err != nil {
			return err
		}
	} else {
		g.jumpTo(bodyL)
	}
	g.startBlock(bodyL)
	g.breakTo = append(g.breakTo, endL)
	g.contTo = append(g.contTo, postL)
	err := g.stmt(st.Body)
	g.breakTo = g.breakTo[:len(g.breakTo)-1]
	g.contTo = g.contTo[:len(g.contTo)-1]
	if err != nil {
		return err
	}
	g.jumpTo(postL)
	g.startBlock(postL)
	if st.Post != nil {
		if _, err := g.exprForEffect(st.Post); err != nil {
			return err
		}
	}
	g.jumpTo(headL)
	g.startBlock(endL)
	return nil
}

func (g *gen) switchStmt(st *mc.Switch) error {
	v, _, err := g.expr(st.X)
	if err != nil {
		return err
	}
	endL := g.label()
	defaultL := endL
	sw := ir.Ins{Kind: ir.OpSwitch, A: v}
	labels := make([]string, len(st.Cases))
	for i, c := range st.Cases {
		labels[i] = g.label()
		if c.IsDefault {
			defaultL = labels[i]
		} else {
			sw.Cases = append(sw.Cases, ir.SwitchCase{Val: c.Value, Target: labels[i]})
		}
	}
	sw.Targets = []string{defaultL}
	g.emit(sw)
	g.breakTo = append(g.breakTo, endL)
	for i, c := range st.Cases {
		g.startBlock(labels[i])
		for _, sub := range c.Body {
			if err := g.stmt(sub); err != nil {
				g.breakTo = g.breakTo[:len(g.breakTo)-1]
				return err
			}
		}
		// Fallthrough to the next case body (or the end).
		if i+1 < len(st.Cases) {
			g.jumpTo(labels[i+1])
		} else {
			g.jumpTo(endL)
		}
	}
	g.breakTo = g.breakTo[:len(g.breakTo)-1]
	g.startBlock(endL)
	return nil
}

func (g *gen) returnStmt(st *mc.Return) error {
	if st.X == nil {
		g.emit(ir.Ins{Kind: ir.OpRet, A: ir.None, FA: ir.None})
		g.startBlock(g.label())
		return nil
	}
	v, isF, err := g.expr(st.X)
	if err != nil {
		return err
	}
	var retType *mc.Type
	if g.f.RetFloat {
		retType = mc.FloatType
	} else {
		retType = mc.IntType
	}
	v, isF = g.convert(v, isF, st.X.Type(), retType)
	if isF {
		g.emit(ir.Ins{Kind: ir.OpRet, A: ir.None, FA: v})
	} else {
		g.emit(ir.Ins{Kind: ir.OpRet, A: v, FA: ir.None})
	}
	g.startBlock(g.label())
	return nil
}
