// Package irgen lowers the type-checked MC AST into the ir package's
// three-address form: scalars to virtual registers, arrays and
// address-taken locals to stack slots, structured control flow to an
// explicit CFG, and global initializers to static data.
package irgen

import (
	"fmt"

	"branchreg/internal/ir"
	"branchreg/internal/mc"
)

// Lower converts a checked unit into IR.
func Lower(u *mc.Unit) (*ir.Unit, error) {
	g := &gen{unit: u, out: &ir.Unit{}}
	if err := g.lowerData(); err != nil {
		return nil, err
	}
	for _, fn := range u.Funcs {
		f, err := g.lowerFunc(fn)
		if err != nil {
			return nil, err
		}
		g.out.Funcs = append(g.out.Funcs, f)
	}
	return g.out, nil
}

type gen struct {
	unit *mc.Unit
	out  *ir.Unit

	// per-function state
	f         *ir.Func
	cur       *ir.Block
	nlabel    int
	vregOf    map[*mc.Symbol]ir.Reg // scalar locals/params in vregs
	slotOf    map[*mc.Symbol]int32  // slot-allocated locals/params
	addrTaken map[*mc.Symbol]bool
	breakTo   []string
	contTo    []string

	// destination registers of the most recent call
	lastCallResult  ir.Reg
	lastCallResultF ir.Reg
}

// ---- static data ----

func (g *gen) lowerData() error {
	for _, s := range g.unit.Strings {
		g.out.Data = append(g.out.Data, ir.Datum{
			Label: s.Label,
			Kind:  ir.DBytes,
			Bytes: append([]byte(s.Value), 0),
		})
	}
	for _, v := range g.unit.Globals {
		d, err := g.lowerGlobal(v)
		if err != nil {
			return err
		}
		g.out.Data = append(g.out.Data, d)
	}
	return nil
}

func (g *gen) lowerGlobal(v *mc.VarDecl) (ir.Datum, error) {
	t := v.Type
	if v.Init == nil {
		return ir.Datum{Label: v.Name, Kind: ir.DZero, Size: t.Size(), Align: t.Align()}, nil
	}
	switch {
	case t.Kind == mc.TFloat:
		fv, err := constFloat(v.Init.Expr)
		if err != nil {
			return ir.Datum{}, err
		}
		return ir.Datum{Label: v.Name, Kind: ir.DFloats, Floats: []float64{fv}}, nil
	case t.Kind == mc.TArray && t.Elem.Kind == mc.TFloat:
		var fs []float64
		for _, sub := range v.Init.List {
			fv, err := constFloat(sub.Expr)
			if err != nil {
				return ir.Datum{}, err
			}
			fs = append(fs, fv)
		}
		for len(fs) < t.Len {
			fs = append(fs, 0)
		}
		return ir.Datum{Label: v.Name, Kind: ir.DFloats, Floats: fs}, nil
	case t.Kind == mc.TArray && t.Elem.Kind == mc.TChar:
		var bs []byte
		if v.Init.Expr != nil {
			s, ok := v.Init.Expr.(*mc.StrLit)
			if !ok {
				return ir.Datum{}, fmt.Errorf("irgen: %s: char array initializer must be a string", v.Name)
			}
			bs = append([]byte(s.Value), 0)
		} else {
			for _, sub := range v.Init.List {
				cv, err := constInt(sub.Expr)
				if err != nil {
					return ir.Datum{}, err
				}
				bs = append(bs, byte(cv))
			}
		}
		if len(bs) > t.Len {
			return ir.Datum{}, fmt.Errorf("irgen: %s: initializer longer than array", v.Name)
		}
		for len(bs) < t.Len {
			bs = append(bs, 0)
		}
		return ir.Datum{Label: v.Name, Kind: ir.DBytes, Bytes: bs}, nil
	case t.Kind == mc.TPtr:
		// Pointer initializer: integer constant or string literal address.
		if s, ok := v.Init.Expr.(*mc.StrLit); ok {
			return ir.Datum{Label: v.Name, Kind: ir.DWords, Words: []int32{0},
				Relocs: []ir.Reloc{{WordIndex: 0, Sym: s.Label}}}, nil
		}
		cv, err := constInt(v.Init.Expr)
		if err != nil {
			return ir.Datum{}, err
		}
		return ir.Datum{Label: v.Name, Kind: ir.DWords, Words: []int32{int32(cv)}}, nil
	case t.IsInteger():
		cv, err := constInt(v.Init.Expr)
		if err != nil {
			return ir.Datum{}, err
		}
		if t.Kind == mc.TChar {
			return ir.Datum{Label: v.Name, Kind: ir.DBytes, Bytes: []byte{byte(cv)}}, nil
		}
		return ir.Datum{Label: v.Name, Kind: ir.DWords, Words: []int32{int32(cv)}}, nil
	case t.Kind == mc.TArray:
		// int (or pointer) arrays, possibly 2-D.
		var words []int32
		var relocs []ir.Reloc
		var flatten func(init *mc.Initializer, typ *mc.Type) error
		flatten = func(init *mc.Initializer, typ *mc.Type) error {
			if init.List != nil {
				if typ.Kind != mc.TArray {
					return fmt.Errorf("irgen: %s: brace list for non-array element", v.Name)
				}
				for _, sub := range init.List {
					if err := flatten(sub, typ.Elem); err != nil {
						return err
					}
				}
				// Zero-fill the remainder of this sub-array.
				fill := (typ.Len - len(init.List)) * typ.Elem.Size() / 4
				for i := 0; i < fill; i++ {
					words = append(words, 0)
				}
				return nil
			}
			if s, ok := init.Expr.(*mc.StrLit); ok {
				relocs = append(relocs, ir.Reloc{WordIndex: len(words), Sym: s.Label})
				words = append(words, 0)
				return nil
			}
			cv, err := constInt(init.Expr)
			if err != nil {
				return err
			}
			words = append(words, int32(cv))
			return nil
		}
		if v.Init.List == nil {
			return ir.Datum{}, fmt.Errorf("irgen: %s: array initializer must be a brace list", v.Name)
		}
		if err := flatten(v.Init, t); err != nil {
			return ir.Datum{}, err
		}
		total := t.Size() / 4
		for len(words) < total {
			words = append(words, 0)
		}
		return ir.Datum{Label: v.Name, Kind: ir.DWords, Words: words, Relocs: relocs}, nil
	}
	return ir.Datum{}, fmt.Errorf("irgen: %s: unsupported global initializer", v.Name)
}

// constInt folds a constant integer expression.
func constInt(e mc.Expr) (int64, error) {
	switch x := e.(type) {
	case *mc.IntLit:
		return x.Value, nil
	case *mc.Unary:
		v, err := constInt(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "~":
			return int64(^int32(v)), nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *mc.Binary:
		l, err := constInt(x.L)
		if err != nil {
			return 0, err
		}
		r, err := constInt(x.R)
		if err != nil {
			return 0, err
		}
		return foldInt(x.Op, l, r)
	case *mc.Cast:
		if x.To.IsInteger() {
			v, err := constInt(x.X)
			if err != nil {
				return 0, err
			}
			if x.To.Kind == mc.TChar {
				return int64(int8(v)), nil
			}
			return int64(int32(v)), nil
		}
	}
	l, c := e.Pos()
	return 0, fmt.Errorf("irgen: %d:%d: initializer is not an integer constant", l, c)
}

func foldInt(op string, l, r int64) (int64, error) {
	a, b := int32(l), int32(r)
	switch op {
	case "+":
		return int64(a + b), nil
	case "-":
		return int64(a - b), nil
	case "*":
		return int64(a * b), nil
	case "/":
		if b == 0 {
			return 0, fmt.Errorf("irgen: constant division by zero")
		}
		return int64(a / b), nil
	case "%":
		if b == 0 {
			return 0, fmt.Errorf("irgen: constant modulo by zero")
		}
		return int64(a % b), nil
	case "&":
		return int64(a & b), nil
	case "|":
		return int64(a | b), nil
	case "^":
		return int64(a ^ b), nil
	case "<<":
		return int64(a << (uint32(b) & 31)), nil
	case ">>":
		return int64(a >> (uint32(b) & 31)), nil
	}
	return 0, fmt.Errorf("irgen: operator %s not constant-foldable", op)
}

func constFloat(e mc.Expr) (float64, error) {
	switch x := e.(type) {
	case *mc.FloatLit:
		return x.Value, nil
	case *mc.IntLit:
		return float64(x.Value), nil
	case *mc.Unary:
		if x.Op == "-" {
			v, err := constFloat(x.X)
			if err != nil {
				return 0, err
			}
			return -v, nil
		}
	case *mc.Binary:
		l, err := constFloat(x.L)
		if err != nil {
			return 0, err
		}
		r, err := constFloat(x.R)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("irgen: constant division by zero")
			}
			return l / r, nil
		}
	}
	l, c := e.Pos()
	return 0, fmt.Errorf("irgen: %d:%d: initializer is not a float constant", l, c)
}

// ---- functions ----

func (g *gen) lowerFunc(fn *mc.FuncDecl) (*ir.Func, error) {
	g.f = ir.NewFunc(fn.Name)
	g.nlabel = 0
	g.vregOf = map[*mc.Symbol]ir.Reg{}
	g.slotOf = map[*mc.Symbol]int32{}
	g.addrTaken = map[*mc.Symbol]bool{}
	g.breakTo, g.contTo = nil, nil
	g.findAddrTaken(fn.Body)

	g.cur = g.f.NewBlock(g.label())

	// Parameters: every param gets a vreg (the calling convention target);
	// address-taken params are copied into a slot.
	for _, p := range fn.Params {
		var r ir.Reg
		if p.Type.Decay().Kind == mc.TFloat {
			r = g.f.NewFloatReg()
			g.f.Params = append(g.f.Params, ir.Arg{R: r, Float: true})
		} else {
			r = g.f.NewIntReg()
			g.f.Params = append(g.f.Params, ir.Arg{R: r, Float: false})
		}
		sym := p.Sym
		if g.addrTaken[sym] {
			slot := g.newSlot(sym.Name, int32(sym.Type.Size()), int32(sym.Type.Align()))
			g.slotOf[sym] = slot
			base := g.f.NewIntReg()
			g.emit(ir.Ins{Kind: ir.OpSlotAddr, Dst: base, Slot: slot})
			if sym.Type.Kind == mc.TFloat {
				g.emit(ir.Ins{Kind: ir.OpStoreF, A: base, FB: r, Size: 8})
			} else {
				g.emit(ir.Ins{Kind: ir.OpStore, A: base, B: r, Size: memSize(sym.Type)})
			}
		} else {
			g.vregOf[sym] = r
		}
	}
	g.f.RetFloat = fn.Ret.Kind == mc.TFloat
	g.f.HasRet = fn.Ret.Kind != mc.TVoid

	if err := g.stmt(fn.Body); err != nil {
		return nil, err
	}
	// Implicit return.
	if g.cur != nil {
		if g.f.HasRet {
			z := g.f.NewIntReg()
			g.emit(ir.Ins{Kind: ir.OpConst, Dst: z, Imm: 0})
			if g.f.RetFloat {
				fz := g.f.NewFloatReg()
				g.emit(ir.Ins{Kind: ir.OpCvIF, FDst: fz, A: z})
				g.emit(ir.Ins{Kind: ir.OpRet, A: ir.None, FA: fz})
			} else {
				g.emit(ir.Ins{Kind: ir.OpRet, A: z, FA: ir.None})
			}
		} else {
			g.emit(ir.Ins{Kind: ir.OpRet, A: ir.None, FA: ir.None})
		}
	}
	g.pruneUnterminated()
	if err := g.f.BuildCFG(); err != nil {
		return nil, err
	}
	g.removeUnreachable()
	if err := g.f.Verify(); err != nil {
		return nil, err
	}
	if err := g.f.Analyze(); err != nil {
		return nil, err
	}
	return g.f, nil
}

// removeUnreachable drops blocks the CFG walk did not reach (dangling
// blocks created after returns, breaks, and continues).
func (g *gen) removeUnreachable() {
	kept := g.f.Blocks[:0]
	for _, b := range g.f.Blocks {
		if b.RPO >= 0 {
			kept = append(kept, b)
		}
	}
	g.f.Blocks = kept
}

// pruneUnterminated removes unreachable empty blocks created by dangling
// labels (e.g. code after a return) and gives any remaining unterminated
// block a trailing return.
func (g *gen) pruneUnterminated() {
	for _, b := range g.f.Blocks {
		if b.Term() == nil {
			b.Ins = append(b.Ins, ir.Ins{Kind: ir.OpRet, A: ir.None, FA: ir.None})
		}
	}
}

func (g *gen) label() string {
	g.nlabel++
	return fmt.Sprintf("L%d", g.nlabel)
}

func (g *gen) newSlot(name string, size, align int32) int32 {
	g.f.Slots = append(g.f.Slots, ir.SlotInfo{Name: name, Size: size, Align: align})
	return int32(len(g.f.Slots) - 1)
}

func (g *gen) emit(in ir.Ins) {
	g.cur.Ins = append(g.cur.Ins, in)
}

// startBlock begins a new block with the given label and makes it current.
func (g *gen) startBlock(label string) {
	g.cur = g.f.NewBlock(label)
}

// jumpTo terminates the current block with a jump if it is still open.
func (g *gen) jumpTo(label string) {
	if g.cur != nil && g.cur.Term() == nil {
		g.emit(ir.Ins{Kind: ir.OpJump, Targets: []string{label}})
	}
}

// findAddrTaken records all symbols whose address is taken with &.
func (g *gen) findAddrTaken(n mc.Node) {
	switch x := n.(type) {
	case *mc.Unary:
		if x.Op == "&" {
			if id, ok := x.X.(*mc.Ident); ok {
				g.addrTaken[id.Sym] = true
			}
		}
		g.findAddrTaken(x.X)
	case *mc.Block:
		for _, s := range x.Stmts {
			g.findAddrTaken(s)
		}
	case *mc.DeclStmt:
		for _, d := range x.Decls {
			if d.Init != nil {
				g.findAddrTakenInit(d.Init)
			}
		}
	case *mc.ExprStmt:
		g.findAddrTaken(x.X)
	case *mc.If:
		g.findAddrTaken(x.Cond)
		g.findAddrTaken(x.Then)
		if x.Else != nil {
			g.findAddrTaken(x.Else)
		}
	case *mc.While:
		g.findAddrTaken(x.Cond)
		g.findAddrTaken(x.Body)
	case *mc.DoWhile:
		g.findAddrTaken(x.Body)
		g.findAddrTaken(x.Cond)
	case *mc.For:
		if x.Init != nil {
			g.findAddrTaken(x.Init)
		}
		if x.Cond != nil {
			g.findAddrTaken(x.Cond)
		}
		if x.Post != nil {
			g.findAddrTaken(x.Post)
		}
		g.findAddrTaken(x.Body)
	case *mc.Switch:
		g.findAddrTaken(x.X)
		for _, c := range x.Cases {
			for _, s := range c.Body {
				g.findAddrTaken(s)
			}
		}
	case *mc.Return:
		if x.X != nil {
			g.findAddrTaken(x.X)
		}
	case *mc.Binary:
		g.findAddrTaken(x.L)
		g.findAddrTaken(x.R)
	case *mc.Assign:
		g.findAddrTaken(x.L)
		g.findAddrTaken(x.R)
	case *mc.CondExpr:
		g.findAddrTaken(x.C)
		g.findAddrTaken(x.T)
		g.findAddrTaken(x.F)
	case *mc.Index:
		g.findAddrTaken(x.X)
		g.findAddrTaken(x.I)
	case *mc.Call:
		for _, a := range x.Args {
			g.findAddrTaken(a)
		}
	case *mc.Cast:
		g.findAddrTaken(x.X)
	case *mc.Postfix:
		g.findAddrTaken(x.X)
	}
}

func (g *gen) findAddrTakenInit(init *mc.Initializer) {
	if init.Expr != nil {
		g.findAddrTaken(init.Expr)
	}
	for _, sub := range init.List {
		g.findAddrTakenInit(sub)
	}
}

// memSize maps a scalar type to its memory operand size.
func memSize(t *mc.Type) int32 {
	switch t.Kind {
	case mc.TChar:
		return 1
	case mc.TFloat:
		return 8
	default:
		return 4
	}
}
