package irgen

import (
	"fmt"

	"branchreg/internal/ir"
	"branchreg/internal/mc"
)

// lval describes an assignable location: either a virtual register or a
// memory address (base register + constant offset).
type lval struct {
	isVreg bool
	vreg   ir.Reg
	float  bool // value class of the location
	base   ir.Reg
	off    int32
	typ    *mc.Type // type of the stored value
}

// narrowChar truncates a vreg to signed 8 bits in place (char semantics
// after arithmetic or int->char conversion).
func (g *gen) narrowChar(r ir.Reg) {
	g.emit(ir.Ins{Kind: ir.OpSll, Dst: r, A: r, UseImm: true, Imm: 24})
	g.emit(ir.Ins{Kind: ir.OpSra, Dst: r, A: r, UseImm: true, Imm: 24})
}

// convert adjusts a value of type 'from' to type 'to', returning the new
// register and float-ness.
func (g *gen) convert(v ir.Reg, isF bool, from, to *mc.Type) (ir.Reg, bool) {
	from = from.Decay()
	if to.Kind == mc.TFloat && !isF {
		d := g.f.NewFloatReg()
		g.emit(ir.Ins{Kind: ir.OpCvIF, FDst: d, A: v})
		return d, true
	}
	if to.Kind != mc.TFloat && isF {
		d := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpCvFI, Dst: d, FA: v})
		if to.Kind == mc.TChar {
			g.narrowChar(d)
		}
		return d, false
	}
	if !isF && to.Kind == mc.TChar && from.Kind != mc.TChar {
		d := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpMov, Dst: d, A: v})
		g.narrowChar(d)
		return d, false
	}
	return v, isF
}

// exprForEffect evaluates an expression for its side effects only.
func (g *gen) exprForEffect(e mc.Expr) (ir.Reg, error) {
	if call, ok := e.(*mc.Call); ok && call.Type().Kind == mc.TVoid {
		return ir.None, g.callExpr(call, false)
	}
	v, _, err := g.expr(e)
	return v, err
}

// expr evaluates an rvalue, returning the result register and whether it is
// a float register.
func (g *gen) expr(e mc.Expr) (ir.Reg, bool, error) {
	switch x := e.(type) {
	case *mc.IntLit:
		r := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpConst, Dst: r, Imm: int64(int32(x.Value))})
		return r, false, nil
	case *mc.FloatLit:
		r := g.f.NewFloatReg()
		g.emit(ir.Ins{Kind: ir.OpConstF, FDst: r, FImm: x.Value})
		return r, true, nil
	case *mc.StrLit:
		r := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpAddr, Dst: r, Sym: x.Label})
		return r, false, nil
	case *mc.Ident:
		return g.identExpr(x)
	case *mc.Unary:
		return g.unaryExpr(x)
	case *mc.Postfix:
		return g.incDec(x.X, x.Op == "++", true)
	case *mc.Binary:
		return g.binaryExpr(x)
	case *mc.Assign:
		return g.assignExpr(x)
	case *mc.CondExpr:
		return g.ternaryExpr(x)
	case *mc.Index:
		lv, err := g.lvalue(x)
		if err != nil {
			return ir.None, false, err
		}
		// Arrays decay: the value of an array-typed element is its address.
		if x.Type().Kind == mc.TArray {
			return g.lvalAddr(lv), false, nil
		}
		r, isF := g.load(lv)
		return r, isF, nil
	case *mc.Call:
		if err := g.callExpr(x, true); err != nil {
			return ir.None, false, err
		}
		if x.Type().Kind == mc.TFloat {
			return g.lastCallResultF, true, nil
		}
		return g.lastCallResult, false, nil
	case *mc.Cast:
		if x.To.Kind == mc.TVoid {
			_, err := g.exprForEffect(x.X)
			return ir.None, false, err
		}
		v, isF, err := g.expr(x.X)
		if err != nil {
			return ir.None, false, err
		}
		v, isF = g.convert(v, isF, x.X.Type(), x.To)
		return v, isF, nil
	}
	return ir.None, false, fmt.Errorf("irgen: unknown expression %T", e)
}

func (g *gen) identExpr(x *mc.Ident) (ir.Reg, bool, error) {
	sym := x.Sym
	switch sym.Kind {
	case mc.SymFunc:
		return ir.None, false, fmt.Errorf("irgen: function %s used as value", sym.Name)
	case mc.SymLocal, mc.SymParam:
		if r, ok := g.vregOf[sym]; ok {
			return r, sym.Type.Kind == mc.TFloat, nil
		}
		slot := g.slotOf[sym]
		base := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpSlotAddr, Dst: base, Slot: slot})
		if sym.Type.Kind == mc.TArray {
			return base, false, nil // decay to address
		}
		return g.loadFrom(base, 0, sym.Type)
	case mc.SymGlobal:
		base := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpAddr, Dst: base, Sym: sym.Name})
		if sym.Type.Kind == mc.TArray {
			return base, false, nil
		}
		return g.loadFrom(base, 0, sym.Type)
	}
	return ir.None, false, fmt.Errorf("irgen: unresolved identifier %s", x.Name)
}

func (g *gen) loadFrom(base ir.Reg, off int32, t *mc.Type) (ir.Reg, bool, error) {
	if t.Kind == mc.TFloat {
		d := g.f.NewFloatReg()
		g.emit(ir.Ins{Kind: ir.OpLoadF, FDst: d, A: base, Off: off, Size: 8})
		return d, true, nil
	}
	d := g.f.NewIntReg()
	g.emit(ir.Ins{Kind: ir.OpLoad, Dst: d, A: base, Off: off, Size: memSize(t)})
	return d, false, nil
}

func (g *gen) unaryExpr(x *mc.Unary) (ir.Reg, bool, error) {
	switch x.Op {
	case "-":
		v, isF, err := g.expr(x.X)
		if err != nil {
			return ir.None, false, err
		}
		if isF {
			d := g.f.NewFloatReg()
			g.emit(ir.Ins{Kind: ir.OpFNeg, FDst: d, FA: v})
			return d, true, nil
		}
		z := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpConst, Dst: z, Imm: 0})
		d := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpSub, Dst: d, A: z, B: v})
		return d, false, nil
	case "~":
		v, _, err := g.expr(x.X)
		if err != nil {
			return ir.None, false, err
		}
		d := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpXor, Dst: d, A: v, UseImm: true, Imm: -1})
		return d, false, nil
	case "!":
		v, isF, err := g.expr(x.X)
		if err != nil {
			return ir.None, false, err
		}
		d := g.f.NewIntReg()
		if isF {
			fz := g.f.NewFloatReg()
			g.emit(ir.Ins{Kind: ir.OpConstF, FDst: fz, FImm: 0})
			g.emit(ir.Ins{Kind: ir.OpSetCondF, Dst: d, FA: v, FB: fz, Cond: ir.CondEQ})
		} else {
			g.emit(ir.Ins{Kind: ir.OpSetCond, Dst: d, A: v, UseImm: true, Imm: 0, Cond: ir.CondEQ})
		}
		return d, false, nil
	case "*":
		lv, err := g.lvalue(x)
		if err != nil {
			return ir.None, false, err
		}
		if x.Type().Kind == mc.TArray {
			return g.lvalAddr(lv), false, nil
		}
		r, isF := g.load(lv)
		return r, isF, nil
	case "&":
		lv, err := g.lvalue(x.X)
		if err != nil {
			return ir.None, false, err
		}
		if lv.isVreg {
			return ir.None, false, fmt.Errorf("irgen: address of register variable")
		}
		if lv.off == 0 {
			return lv.base, false, nil
		}
		d := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpAdd, Dst: d, A: lv.base, UseImm: true, Imm: int64(lv.off)})
		return d, false, nil
	case "++", "--":
		return g.incDec(x.X, x.Op == "++", false)
	}
	return ir.None, false, fmt.Errorf("irgen: unknown unary %s", x.Op)
}

// incDec implements ++/-- (pre and post forms) on any lvalue, including
// pointers (scaled by element size) and floats.
func (g *gen) incDec(target mc.Expr, inc, post bool) (ir.Reg, bool, error) {
	lv, err := g.lvalue(target)
	if err != nil {
		return ir.None, false, err
	}
	old, isF := g.load(lv)
	// For register lvalues the loaded value aliases the variable itself;
	// the post form must return a snapshot taken before the update.
	if post && lv.isVreg {
		if isF {
			snap := g.f.NewFloatReg()
			g.emit(ir.Ins{Kind: ir.OpMovF, FDst: snap, FA: old})
			old = snap
		} else {
			snap := g.f.NewIntReg()
			g.emit(ir.Ins{Kind: ir.OpMov, Dst: snap, A: old})
			old = snap
		}
	}
	t := target.Type()
	step := int64(1)
	if t.Kind == mc.TPtr {
		step = int64(t.Elem.Size())
	}
	if !inc {
		step = -step
	}
	var newV ir.Reg
	if isF {
		one := g.f.NewFloatReg()
		g.emit(ir.Ins{Kind: ir.OpConstF, FDst: one, FImm: float64(step)})
		newV = g.f.NewFloatReg()
		g.emit(ir.Ins{Kind: ir.OpFAdd, FDst: newV, FA: old, FB: one})
	} else {
		newV = g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpAdd, Dst: newV, A: old, UseImm: true, Imm: step})
		if t.Kind == mc.TChar {
			g.narrowChar(newV)
		}
	}
	g.store(lv, newV)
	if post {
		return old, isF, nil
	}
	return newV, isF, nil
}

func (g *gen) binaryExpr(x *mc.Binary) (ir.Reg, bool, error) {
	switch x.Op {
	case "&&", "||":
		return g.logicalValue(x)
	case "==", "!=", "<", "<=", ">", ">=":
		return g.comparisonValue(x)
	}
	lt, rt := x.L.Type().Decay(), x.R.Type().Decay()
	// Pointer arithmetic.
	if x.Op == "+" || x.Op == "-" {
		if lt.Kind == mc.TPtr && rt.IsInteger() {
			return g.ptrOffset(x.L, x.R, x.Op == "-")
		}
		if rt.Kind == mc.TPtr && lt.IsInteger() && x.Op == "+" {
			return g.ptrOffset(x.R, x.L, false)
		}
		if lt.Kind == mc.TPtr && rt.Kind == mc.TPtr {
			return g.ptrDiff(x)
		}
	}
	l, lf, err := g.expr(x.L)
	if err != nil {
		return ir.None, false, err
	}
	if x.Type().Kind == mc.TFloat {
		l, _ = g.convert(l, lf, lt, mc.FloatType)
		r, rf, err := g.expr(x.R)
		if err != nil {
			return ir.None, false, err
		}
		r, _ = g.convert(r, rf, rt, mc.FloatType)
		kind := floatBinOp(x.Op)
		d := g.f.NewFloatReg()
		g.emit(ir.Ins{Kind: kind, FDst: d, FA: l, FB: r})
		return d, true, nil
	}
	kind := intBinOp(x.Op)
	d := g.f.NewIntReg()
	// Fold a literal right operand into the immediate field.
	if c, ok := x.R.(*mc.IntLit); ok {
		g.emit(ir.Ins{Kind: kind, Dst: d, A: l, UseImm: true, Imm: int64(int32(c.Value))})
		return d, false, nil
	}
	r, rf, err := g.expr(x.R)
	if err != nil {
		return ir.None, false, err
	}
	if rf {
		r, _ = g.convert(r, rf, rt, mc.IntType)
	}
	g.emit(ir.Ins{Kind: kind, Dst: d, A: l, B: r})
	return d, false, nil
}

// ptrOffset computes p ± i, scaling i by the pointee size.
func (g *gen) ptrOffset(pe, ie mc.Expr, sub bool) (ir.Reg, bool, error) {
	p, _, err := g.expr(pe)
	if err != nil {
		return ir.None, false, err
	}
	esz := int64(pe.Type().Decay().Elem.Size())
	// Constant index folds completely.
	if c, ok := ie.(*mc.IntLit); ok {
		off := c.Value * esz
		if sub {
			off = -off
		}
		d := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpAdd, Dst: d, A: p, UseImm: true, Imm: off})
		return d, false, nil
	}
	i, _, err := g.expr(ie)
	if err != nil {
		return ir.None, false, err
	}
	scaled := g.scale(i, esz)
	d := g.f.NewIntReg()
	kind := ir.OpAdd
	if sub {
		kind = ir.OpSub
	}
	g.emit(ir.Ins{Kind: kind, Dst: d, A: p, B: scaled})
	return d, false, nil
}

// scale multiplies r by esz, preferring shifts for powers of two.
func (g *gen) scale(r ir.Reg, esz int64) ir.Reg {
	if esz == 1 {
		return r
	}
	d := g.f.NewIntReg()
	if sh := log2(esz); sh > 0 {
		g.emit(ir.Ins{Kind: ir.OpSll, Dst: d, A: r, UseImm: true, Imm: int64(sh)})
	} else {
		g.emit(ir.Ins{Kind: ir.OpMul, Dst: d, A: r, UseImm: true, Imm: esz})
	}
	return d
}

func log2(v int64) int {
	for i := 1; i < 31; i++ {
		if v == 1<<uint(i) {
			return i
		}
	}
	return 0
}

func (g *gen) ptrDiff(x *mc.Binary) (ir.Reg, bool, error) {
	l, _, err := g.expr(x.L)
	if err != nil {
		return ir.None, false, err
	}
	r, _, err := g.expr(x.R)
	if err != nil {
		return ir.None, false, err
	}
	d := g.f.NewIntReg()
	g.emit(ir.Ins{Kind: ir.OpSub, Dst: d, A: l, B: r})
	esz := int64(x.L.Type().Decay().Elem.Size())
	if esz > 1 {
		q := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpDiv, Dst: q, A: d, UseImm: true, Imm: esz})
		return q, false, nil
	}
	return d, false, nil
}

// comparisonValue materializes a comparison as 0/1.
func (g *gen) comparisonValue(x *mc.Binary) (ir.Reg, bool, error) {
	cond := condOf(x.Op)
	lt, rt := x.L.Type().Decay(), x.R.Type().Decay()
	if lt.Kind == mc.TFloat || rt.Kind == mc.TFloat {
		l, lf, err := g.expr(x.L)
		if err != nil {
			return ir.None, false, err
		}
		l, _ = g.convert(l, lf, lt, mc.FloatType)
		r, rf, err := g.expr(x.R)
		if err != nil {
			return ir.None, false, err
		}
		r, _ = g.convert(r, rf, rt, mc.FloatType)
		d := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpSetCondF, Dst: d, FA: l, FB: r, Cond: cond})
		return d, false, nil
	}
	l, _, err := g.expr(x.L)
	if err != nil {
		return ir.None, false, err
	}
	d := g.f.NewIntReg()
	if c, ok := x.R.(*mc.IntLit); ok {
		g.emit(ir.Ins{Kind: ir.OpSetCond, Dst: d, A: l, UseImm: true, Imm: int64(int32(c.Value)), Cond: cond})
		return d, false, nil
	}
	r, _, err := g.expr(x.R)
	if err != nil {
		return ir.None, false, err
	}
	g.emit(ir.Ins{Kind: ir.OpSetCond, Dst: d, A: l, B: r, Cond: cond})
	return d, false, nil
}

func condOf(op string) ir.Cond {
	switch op {
	case "==":
		return ir.CondEQ
	case "!=":
		return ir.CondNE
	case "<":
		return ir.CondLT
	case "<=":
		return ir.CondLE
	case ">":
		return ir.CondGT
	case ">=":
		return ir.CondGE
	}
	return ir.CondNone
}

// logicalValue materializes && or || as 0/1 via control flow.
func (g *gen) logicalValue(x *mc.Binary) (ir.Reg, bool, error) {
	d := g.f.NewIntReg()
	tL, fL, endL := g.label(), g.label(), g.label()
	if err := g.cond(x, tL, fL); err != nil {
		return ir.None, false, err
	}
	g.startBlock(tL)
	g.emit(ir.Ins{Kind: ir.OpConst, Dst: d, Imm: 1})
	g.jumpTo(endL)
	g.startBlock(fL)
	g.emit(ir.Ins{Kind: ir.OpConst, Dst: d, Imm: 0})
	g.jumpTo(endL)
	g.startBlock(endL)
	return d, false, nil
}

func (g *gen) ternaryExpr(x *mc.CondExpr) (ir.Reg, bool, error) {
	isFloat := x.Type().Kind == mc.TFloat
	var d ir.Reg
	if isFloat {
		d = g.f.NewFloatReg()
	} else {
		d = g.f.NewIntReg()
	}
	tL, fL, endL := g.label(), g.label(), g.label()
	if err := g.cond(x.C, tL, fL); err != nil {
		return ir.None, false, err
	}
	g.startBlock(tL)
	tv, tf, err := g.expr(x.T)
	if err != nil {
		return ir.None, false, err
	}
	tv, _ = g.convert(tv, tf, x.T.Type(), x.Type())
	if isFloat {
		g.emit(ir.Ins{Kind: ir.OpMovF, FDst: d, FA: tv})
	} else {
		g.emit(ir.Ins{Kind: ir.OpMov, Dst: d, A: tv})
	}
	g.jumpTo(endL)
	g.startBlock(fL)
	fv, ff, err := g.expr(x.F)
	if err != nil {
		return ir.None, false, err
	}
	fv, _ = g.convert(fv, ff, x.F.Type(), x.Type())
	if isFloat {
		g.emit(ir.Ins{Kind: ir.OpMovF, FDst: d, FA: fv})
	} else {
		g.emit(ir.Ins{Kind: ir.OpMov, Dst: d, A: fv})
	}
	g.jumpTo(endL)
	g.startBlock(endL)
	return d, isFloat, nil
}

func (g *gen) assignExpr(x *mc.Assign) (ir.Reg, bool, error) {
	lv, err := g.lvalue(x.L)
	if err != nil {
		return ir.None, false, err
	}
	lt := x.L.Type()
	if x.Op == "=" {
		v, isF, err := g.expr(x.R)
		if err != nil {
			return ir.None, false, err
		}
		v, _ = g.convert(v, isF, x.R.Type(), lt)
		g.store(lv, v)
		return v, lt.Kind == mc.TFloat, nil
	}
	// Compound assignment: load, op, store.
	old, _ := g.load(lv)
	op := x.Op[:len(x.Op)-1]
	if lt.Kind == mc.TPtr {
		esz := int64(lt.Elem.Size())
		var delta ir.Reg
		if c, ok := x.R.(*mc.IntLit); ok {
			delta = g.f.NewIntReg()
			g.emit(ir.Ins{Kind: ir.OpConst, Dst: delta, Imm: c.Value * esz})
		} else {
			rv, _, err := g.expr(x.R)
			if err != nil {
				return ir.None, false, err
			}
			delta = g.scale(rv, esz)
		}
		d := g.f.NewIntReg()
		kind := ir.OpAdd
		if op == "-" {
			kind = ir.OpSub
		}
		g.emit(ir.Ins{Kind: kind, Dst: d, A: old, B: delta})
		g.store(lv, d)
		return d, false, nil
	}
	if lt.Kind == mc.TFloat {
		rv, rf, err := g.expr(x.R)
		if err != nil {
			return ir.None, false, err
		}
		rv, _ = g.convert(rv, rf, x.R.Type(), mc.FloatType)
		kind := floatBinOp(op)
		if kind == 0 && op != "+" {
			return ir.None, false, fmt.Errorf("irgen: %s on float", x.Op)
		}
		d := g.f.NewFloatReg()
		g.emit(ir.Ins{Kind: kind, FDst: d, FA: old, FB: rv})
		g.store(lv, d)
		return d, true, nil
	}
	kind := intBinOp(op)
	d := g.f.NewIntReg()
	if c, ok := x.R.(*mc.IntLit); ok {
		g.emit(ir.Ins{Kind: kind, Dst: d, A: old, UseImm: true, Imm: int64(int32(c.Value))})
	} else {
		rv, rf, err := g.expr(x.R)
		if err != nil {
			return ir.None, false, err
		}
		if rf {
			rv, _ = g.convert(rv, rf, x.R.Type(), mc.IntType)
		}
		g.emit(ir.Ins{Kind: kind, Dst: d, A: old, B: rv})
	}
	if lt.Kind == mc.TChar {
		g.narrowChar(d)
	}
	g.store(lv, d)
	return d, false, nil
}

func (g *gen) callExpr(x *mc.Call, wantResult bool) error {
	id := x.Fun.(*mc.Ident)
	var args []ir.Arg
	ft := id.Sym.Type
	for i, a := range x.Args {
		v, isF, err := g.expr(a)
		if err != nil {
			return err
		}
		v, isF = g.convert(v, isF, a.Type(), ft.Params[i])
		args = append(args, ir.Arg{R: v, Float: isF})
	}
	call := ir.Ins{Kind: ir.OpCall, Sym: id.Name, Args: args, Dst: ir.None, FDst: ir.None,
		Builtin: id.Sym.Fun == nil && mc.Builtins[id.Name] != nil}
	g.lastCallResult, g.lastCallResultF = ir.None, ir.None
	if ft.Ret.Kind != mc.TVoid {
		if ft.Ret.Kind == mc.TFloat {
			call.FDst = g.f.NewFloatReg()
			g.lastCallResultF = call.FDst
		} else {
			call.Dst = g.f.NewIntReg()
			g.lastCallResult = call.Dst
		}
	}
	g.emit(call)
	return nil
}

// lvalue computes the location an assignable expression denotes.
func (g *gen) lvalue(e mc.Expr) (lval, error) {
	switch x := e.(type) {
	case *mc.Ident:
		sym := x.Sym
		if r, ok := g.vregOf[sym]; ok {
			return lval{isVreg: true, vreg: r, float: sym.Type.Kind == mc.TFloat, typ: sym.Type}, nil
		}
		base := g.f.NewIntReg()
		if sym.Kind == mc.SymGlobal {
			g.emit(ir.Ins{Kind: ir.OpAddr, Dst: base, Sym: sym.Name})
		} else {
			g.emit(ir.Ins{Kind: ir.OpSlotAddr, Dst: base, Slot: g.slotOf[sym]})
		}
		return lval{base: base, typ: sym.Type, float: sym.Type.Kind == mc.TFloat}, nil
	case *mc.Unary:
		if x.Op != "*" {
			break
		}
		p, _, err := g.expr(x.X)
		if err != nil {
			return lval{}, err
		}
		et := x.X.Type().Decay().Elem
		return lval{base: p, typ: et, float: et.Kind == mc.TFloat}, nil
	case *mc.Index:
		base, _, err := g.expr(x.X)
		if err != nil {
			return lval{}, err
		}
		et := x.X.Type().Decay().Elem
		esz := int64(et.Size())
		if c, ok := x.I.(*mc.IntLit); ok {
			return lval{base: base, off: int32(c.Value * esz), typ: et, float: et.Kind == mc.TFloat}, nil
		}
		i, _, err := g.expr(x.I)
		if err != nil {
			return lval{}, err
		}
		scaled := g.scale(i, esz)
		addr := g.f.NewIntReg()
		g.emit(ir.Ins{Kind: ir.OpAdd, Dst: addr, A: base, B: scaled})
		return lval{base: addr, typ: et, float: et.Kind == mc.TFloat}, nil
	}
	l, c := e.Pos()
	return lval{}, fmt.Errorf("irgen: %d:%d: expression is not an lvalue", l, c)
}

// lvalAddr materializes the address a memory lvalue denotes.
func (g *gen) lvalAddr(lv lval) ir.Reg {
	if lv.off == 0 {
		return lv.base
	}
	d := g.f.NewIntReg()
	g.emit(ir.Ins{Kind: ir.OpAdd, Dst: d, A: lv.base, UseImm: true, Imm: int64(lv.off)})
	return d
}

// load reads the current value of an lvalue.
func (g *gen) load(lv lval) (ir.Reg, bool) {
	if lv.isVreg {
		return lv.vreg, lv.float
	}
	if lv.typ.Kind == mc.TFloat {
		d := g.f.NewFloatReg()
		g.emit(ir.Ins{Kind: ir.OpLoadF, FDst: d, A: lv.base, Off: lv.off, Size: 8})
		return d, true
	}
	d := g.f.NewIntReg()
	g.emit(ir.Ins{Kind: ir.OpLoad, Dst: d, A: lv.base, Off: lv.off, Size: memSize(lv.typ)})
	return d, false
}

// store writes v into an lvalue.
func (g *gen) store(lv lval, v ir.Reg) {
	if lv.isVreg {
		if lv.float {
			g.emit(ir.Ins{Kind: ir.OpMovF, FDst: lv.vreg, FA: v})
		} else {
			g.emit(ir.Ins{Kind: ir.OpMov, Dst: lv.vreg, A: v})
			if lv.typ.Kind == mc.TChar {
				g.narrowChar(lv.vreg)
			}
		}
		return
	}
	if lv.typ.Kind == mc.TFloat {
		g.emit(ir.Ins{Kind: ir.OpStoreF, A: lv.base, FB: v, Off: lv.off, Size: 8})
		return
	}
	g.emit(ir.Ins{Kind: ir.OpStore, A: lv.base, B: v, Off: lv.off, Size: memSize(lv.typ)})
}

// cond lowers a boolean expression into branches to tl/fl.
func (g *gen) cond(e mc.Expr, tl, fl string) error {
	switch x := e.(type) {
	case *mc.IntLit:
		if x.Value != 0 {
			g.jumpTo(tl)
		} else {
			g.jumpTo(fl)
		}
		return nil
	case *mc.Unary:
		if x.Op == "!" {
			return g.cond(x.X, fl, tl)
		}
	case *mc.Binary:
		switch x.Op {
		case "&&":
			mid := g.label()
			if err := g.cond(x.L, mid, fl); err != nil {
				return err
			}
			g.startBlock(mid)
			return g.cond(x.R, tl, fl)
		case "||":
			mid := g.label()
			if err := g.cond(x.L, tl, mid); err != nil {
				return err
			}
			g.startBlock(mid)
			return g.cond(x.R, tl, fl)
		case "==", "!=", "<", "<=", ">", ">=":
			return g.condCompare(x, tl, fl)
		}
	}
	// General scalar: compare against zero.
	v, isF, err := g.expr(e)
	if err != nil {
		return err
	}
	if isF {
		fz := g.f.NewFloatReg()
		g.emit(ir.Ins{Kind: ir.OpConstF, FDst: fz, FImm: 0})
		g.emit(ir.Ins{Kind: ir.OpBrF, FA: v, FB: fz, Cond: ir.CondNE, Targets: []string{tl, fl}})
	} else {
		g.emit(ir.Ins{Kind: ir.OpBr, A: v, UseImm: true, Imm: 0, Cond: ir.CondNE, Targets: []string{tl, fl}})
	}
	g.startBlock(g.label())
	return nil
}

func (g *gen) condCompare(x *mc.Binary, tl, fl string) error {
	cond := condOf(x.Op)
	lt, rt := x.L.Type().Decay(), x.R.Type().Decay()
	if lt.Kind == mc.TFloat || rt.Kind == mc.TFloat {
		l, lf, err := g.expr(x.L)
		if err != nil {
			return err
		}
		l, _ = g.convert(l, lf, lt, mc.FloatType)
		r, rf, err := g.expr(x.R)
		if err != nil {
			return err
		}
		r, _ = g.convert(r, rf, rt, mc.FloatType)
		g.emit(ir.Ins{Kind: ir.OpBrF, FA: l, FB: r, Cond: cond, Targets: []string{tl, fl}})
		g.startBlock(g.label())
		return nil
	}
	l, _, err := g.expr(x.L)
	if err != nil {
		return err
	}
	if c, ok := x.R.(*mc.IntLit); ok {
		g.emit(ir.Ins{Kind: ir.OpBr, A: l, UseImm: true, Imm: int64(int32(c.Value)), Cond: cond, Targets: []string{tl, fl}})
		g.startBlock(g.label())
		return nil
	}
	r, _, err := g.expr(x.R)
	if err != nil {
		return err
	}
	g.emit(ir.Ins{Kind: ir.OpBr, A: l, B: r, Cond: cond, Targets: []string{tl, fl}})
	g.startBlock(g.label())
	return nil
}

// intBinOp maps an integer arithmetic operator to its IR operation; any
// other spelling maps to the zero OpKind.
func intBinOp(op string) ir.OpKind {
	switch op {
	case "+":
		return ir.OpAdd
	case "-":
		return ir.OpSub
	case "*":
		return ir.OpMul
	case "/":
		return ir.OpDiv
	case "%":
		return ir.OpRem
	case "&":
		return ir.OpAnd
	case "|":
		return ir.OpOr
	case "^":
		return ir.OpXor
	case "<<":
		return ir.OpSll
	case ">>":
		return ir.OpSra
	}
	return 0
}

// floatBinOp is intBinOp for float operands.
func floatBinOp(op string) ir.OpKind {
	switch op {
	case "+":
		return ir.OpFAdd
	case "-":
		return ir.OpFSub
	case "*":
		return ir.OpFMul
	case "/":
		return ir.OpFDiv
	}
	return 0
}
