package codegen

import (
	"fmt"

	"branchreg/internal/ir"
	"branchreg/internal/isa"
)

// Frame describes a function's stack frame. Layout, from the stack pointer
// upward after the prologue's adjustment:
//
//	[0, outArgs)            outgoing stack-argument overflow area
//	[outArgs, spills)       integer + float spill slots
//	[spills, locals)        IR stack slots (arrays, address-taken scalars)
//	[locals, saves)         callee-saved register saves, RA save, BR saves
//	size                    total, 8-aligned
//
// Incoming stack arguments live at [size + 4*j].
type Frame struct {
	Size       int32
	OutArgBase int32
	IntSpill   int32 // base of integer spill slots
	FltSpill   int32
	LocalOff   []int32          // per IR slot
	SaveBase   int32            // base of the save area
	SaveOff    map[string]int32 // named save slots ("ra", "r14", "f16", "b4", ...)
}

// Gen is the shared code-generation context for one function.
type Gen struct {
	M     *Machine
	F     *ir.Func
	Alloc *Allocation
	Frame *Frame
	Buf   []isa.Instr // current emission buffer
	Data  []*isa.DataItem
	ntab  int

	// savedInt/savedFloat: callee-saved machine registers the allocator
	// used, in save order. Extra named saves (RA, branch registers) are
	// requested before Layout.
	savedInt   []int
	savedFloat []int
	extraSaves []string

	HasCalls bool
	MaxOut   int // max outgoing stack args (beyond register args)
}

// NewGen allocates registers for f and prepares a generation context.
// Callers may request extra named save slots (RA, branch registers) with
// ReserveSave before calling Layout.
func NewGen(m *Machine, f *ir.Func) *Gen {
	g := &Gen{M: m, F: f, Alloc: Allocate(m, f)}
	for _, b := range f.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			if in.Kind == ir.OpCall {
				if !in.Builtin {
					g.HasCalls = true
				}
				ni, nf := 0, 0
				for _, a := range in.Args {
					if a.Float {
						nf++
					} else {
						ni++
					}
				}
				// Every overflow argument gets an 8-byte stack slot so
				// float alignment is uniform.
				out := 0
				if ni > m.NumArgs {
					out += 2 * (ni - m.NumArgs)
				}
				if nf > m.FNumArgs {
					out += 2 * (nf - m.FNumArgs)
				}
				if out > g.MaxOut {
					g.MaxOut = out
				}
			}
		}
	}
	return g
}

// ReserveSave requests a named 4-byte slot in the save area ("ra", "b4",
// "b5", "b6" — integer-register-sized values moved via the temp register).
func (g *Gen) ReserveSave(name string) {
	g.extraSaves = append(g.extraSaves, name)
}

// Layout finalizes the frame. Must be called once, after ReserveSave calls
// and before emitting code. The save and spill areas sit near the stack
// pointer so their offsets stay within the machines' small immediate
// fields; large local arrays go last (their addresses are materialized
// with AddImm, which handles any offset).
func (g *Gen) Layout() {
	fr := &Frame{SaveOff: map[string]int32{}}
	off := int32(0)
	fr.OutArgBase = 0
	off += int32(4 * g.MaxOut)
	// Save area: callee-saved registers used by the allocator plus named
	// extra slots (RA, branch registers).
	off = align(off, 4)
	fr.SaveBase = off
	for r := range g.Alloc.UsedInt {
		if g.M.CalleeSavedInt(r) {
			g.savedInt = append(g.savedInt, r)
		}
	}
	sortInts(g.savedInt)
	for r := range g.Alloc.UsedFloat {
		if g.M.CalleeSavedFloat(r) {
			g.savedFloat = append(g.savedFloat, r)
		}
	}
	sortInts(g.savedFloat)
	for _, r := range g.savedInt {
		fr.SaveOff[fmt.Sprintf("r%d", r)] = off
		off += 4
	}
	for _, name := range g.extraSaves {
		fr.SaveOff[name] = off
		off += 4
	}
	off = align(off, 8)
	for _, r := range g.savedFloat {
		fr.SaveOff[fmt.Sprintf("f%d", r)] = off
		off += 8
	}
	// Spill slots.
	fr.FltSpill = off
	off += int32(8 * g.Alloc.FltSpills)
	fr.IntSpill = off
	off += int32(4 * g.Alloc.IntSpills)
	// IR slots (arrays, address-taken scalars).
	fr.LocalOff = make([]int32, len(g.F.Slots))
	for i, s := range g.F.Slots {
		al := s.Align
		if al == 0 {
			al = 4
		}
		off = align(off, al)
		fr.LocalOff[i] = off
		off += s.Size
	}
	fr.Size = align(off, 8)
	g.Frame = fr
}

// EmitSPMem emits an SP-relative memory access, routing oversized offsets
// through the scratch register.
func (g *Gen) EmitSPMem(op isa.Op, rd int, off int32, comment string) {
	base, o := g.memRef(g.M.SPReg, off)
	g.Emit(isa.Instr{Op: op, Rd: rd, Rs1: base, UseImm: true, Imm: o, Comment: comment})
}

func align(v, n int32) int32 {
	if r := v % n; r != 0 {
		return v + n - r
	}
	return v
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Emit appends an instruction to the current buffer.
func (g *Gen) Emit(in isa.Instr) {
	g.Buf = append(g.Buf, in)
}

// TakeBuf returns the emission buffer's contents and empties it. The
// buffer keeps its capacity for the next block, so the caller must copy
// the instructions out before it emits again.
func (g *Gen) TakeBuf() []isa.Instr {
	b := g.Buf
	g.Buf = g.Buf[:0]
	return b
}

// ---- operand access ----

// UseInt returns a machine register currently holding integer vreg v,
// loading from the spill slot into tmp when spilled. tmp selects which
// scratch register to use (0 or 1).
func (g *Gen) UseInt(v ir.Reg, tmp int) int {
	loc := g.Alloc.Int[v]
	if !loc.Spill {
		return loc.Reg
	}
	r := g.M.TmpReg
	if tmp == 1 {
		r = g.M.Tmp2Reg
	}
	g.EmitSPMem(isa.OpLw, r, g.Frame.IntSpill+int32(4*loc.Slot), "reload spill")
	return r
}

// DefInt returns the register to compute integer vreg v into; the returned
// flush function must be called after the computation (it stores spilled
// destinations).
func (g *Gen) DefInt(v ir.Reg) (int, func()) {
	loc := g.Alloc.Int[v]
	if !loc.Spill {
		return loc.Reg, func() {}
	}
	r := g.M.TmpReg
	off := g.Frame.IntSpill + int32(4*loc.Slot)
	return r, func() {
		g.EmitSPMem(isa.OpSw, r, off, "spill")
	}
}

// UseFloat mirrors UseInt for float vregs.
func (g *Gen) UseFloat(v ir.Reg, tmp int) int {
	loc := g.Alloc.Float[v]
	if !loc.Spill {
		return loc.Reg
	}
	r := g.M.FTmpReg
	if tmp == 1 {
		r = g.M.FTmp2Reg
	}
	g.EmitSPMem(isa.OpLf, r, g.Frame.FltSpill+int32(8*loc.Slot), "reload spill")
	return r
}

// DefFloat mirrors DefInt for float vregs.
func (g *Gen) DefFloat(v ir.Reg) (int, func()) {
	loc := g.Alloc.Float[v]
	if !loc.Spill {
		return loc.Reg, func() {}
	}
	r := g.M.FTmpReg
	off := g.Frame.FltSpill + int32(8*loc.Slot)
	return r, func() {
		g.EmitSPMem(isa.OpSf, r, off, "spill")
	}
}

// MaterializeImm puts a 32-bit constant into machine register rd.
func (g *Gen) MaterializeImm(rd int, v int32) {
	if g.M.FitsALUImm(int64(v)) {
		g.Emit(isa.Instr{Op: isa.OpAdd, Rd: rd, Rs1: g.M.ZeroReg, UseImm: true, Imm: v})
		return
	}
	hi, lo := isa.SplitAddr(v)
	g.Emit(isa.Instr{Op: isa.OpSethi, Rd: rd, UseImm: true, Imm: hi})
	if lo != 0 {
		g.Emit(isa.Instr{Op: isa.OpAdd, Rd: rd, Rs1: rd, UseImm: true, Imm: lo})
	}
}

// MaterializeAddr puts the address of data symbol sym (+off) into rd using
// the two-instruction sethi/add-low sequence (paper §4).
func (g *Gen) MaterializeAddr(rd int, sym string, off int32) {
	g.Emit(isa.Instr{Op: isa.OpSethi, Rd: rd, DataTarget: sym, Comment: "hi(" + sym + ")"})
	g.Emit(isa.Instr{Op: isa.OpAdd, Rd: rd, Rs1: rd, DataTarget: sym, Lo: true,
		Comment: "lo(" + sym + ")"})
	if off != 0 {
		g.Emit(isa.Instr{Op: isa.OpAdd, Rd: rd, Rs1: rd, UseImm: true, Imm: off})
	}
}

// AddImm emits rd = rs + imm, materializing oversized immediates through
// the second scratch register.
func (g *Gen) AddImm(rd, rs int, imm int32) {
	if imm == 0 && rd == rs {
		return
	}
	if g.M.FitsALUImm(int64(imm)) {
		g.Emit(isa.Instr{Op: isa.OpAdd, Rd: rd, Rs1: rs, UseImm: true, Imm: imm})
		return
	}
	g.MaterializeImm(g.M.Tmp2Reg, imm)
	g.Emit(isa.Instr{Op: isa.OpAdd, Rd: rd, Rs1: rs, Rs2: g.M.Tmp2Reg})
}

// memRef prepares a base register and small offset for a memory operand at
// machine address (base + off).
func (g *Gen) memRef(base int, off int32) (int, int32) {
	if g.M.FitsALUImm(int64(off)) {
		return base, off
	}
	g.MaterializeImm(g.M.Tmp2Reg, off)
	g.Emit(isa.Instr{Op: isa.OpAdd, Rd: g.M.Tmp2Reg, Rs1: base, Rs2: g.M.Tmp2Reg})
	return g.M.Tmp2Reg, 0
}

var aluOp = map[ir.OpKind]isa.Op{
	ir.OpAdd: isa.OpAdd, ir.OpSub: isa.OpSub, ir.OpMul: isa.OpMul,
	ir.OpDiv: isa.OpDiv, ir.OpRem: isa.OpRem, ir.OpAnd: isa.OpAnd,
	ir.OpOr: isa.OpOr, ir.OpXor: isa.OpXor, ir.OpSll: isa.OpSll,
	ir.OpSrl: isa.OpSrl, ir.OpSra: isa.OpSra,
}

var fpOp = map[ir.OpKind]isa.Op{
	ir.OpFAdd: isa.OpFadd, ir.OpFSub: isa.OpFsub,
	ir.OpFMul: isa.OpFmul, ir.OpFDiv: isa.OpFdiv,
}

// CondOf converts an IR condition to an ISA condition.
func CondOf(c ir.Cond) isa.Cond {
	switch c {
	case ir.CondEQ:
		return isa.CondEQ
	case ir.CondNE:
		return isa.CondNE
	case ir.CondLT:
		return isa.CondLT
	case ir.CondLE:
		return isa.CondLE
	case ir.CondGT:
		return isa.CondGT
	case ir.CondGE:
		return isa.CondGE
	}
	return isa.CondNone
}

// LowerIns lowers one non-terminator, non-call IR instruction into the
// current buffer. Terminators and calls are machine-specific and handled by
// the drivers.
func (g *Gen) LowerIns(in *ir.Ins) error {
	switch in.Kind {
	case ir.OpConst:
		rd, fl := g.DefInt(in.Dst)
		g.MaterializeImm(rd, int32(in.Imm))
		fl()
	case ir.OpConstF:
		rd, fl := g.DefFloat(in.FDst)
		// Float constants live in the data segment.
		lbl := g.floatConstLabel(in.FImm)
		g.MaterializeAddr(g.M.Tmp2Reg, lbl, 0)
		g.Emit(isa.Instr{Op: isa.OpLf, Rd: rd, Rs1: g.M.Tmp2Reg, UseImm: true, Imm: 0})
		fl()
	case ir.OpAddr:
		rd, fl := g.DefInt(in.Dst)
		g.MaterializeAddr(rd, in.Sym, in.Off)
		fl()
	case ir.OpSlotAddr:
		rd, fl := g.DefInt(in.Dst)
		g.AddImm(rd, g.M.SPReg, g.Frame.LocalOff[in.Slot]+in.Off)
		fl()
	case ir.OpMov:
		rs := g.UseInt(in.A, 0)
		rd, fl := g.DefInt(in.Dst)
		if rd != rs {
			g.Emit(isa.Instr{Op: isa.OpOr, Rd: rd, Rs1: rs, UseImm: true, Imm: 0})
		}
		fl()
	case ir.OpMovF:
		rs := g.UseFloat(in.FA, 0)
		rd, fl := g.DefFloat(in.FDst)
		if rd != rs {
			g.Emit(isa.Instr{Op: isa.OpFmov, Rd: rd, Rs1: rs})
		}
		fl()
	case ir.OpFNeg:
		rs := g.UseFloat(in.FA, 0)
		rd, fl := g.DefFloat(in.FDst)
		g.Emit(isa.Instr{Op: isa.OpFneg, Rd: rd, Rs1: rs})
		fl()
	case ir.OpCvIF:
		rs := g.UseInt(in.A, 0)
		rd, fl := g.DefFloat(in.FDst)
		g.Emit(isa.Instr{Op: isa.OpCvtif, Rd: rd, Rs1: rs})
		fl()
	case ir.OpCvFI:
		rs := g.UseFloat(in.FA, 0)
		rd, fl := g.DefInt(in.Dst)
		g.Emit(isa.Instr{Op: isa.OpCvtfi, Rd: rd, Rs1: rs})
		fl()
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		ra := g.UseFloat(in.FA, 0)
		rb := g.UseFloat(in.FB, 1)
		rd, fl := g.DefFloat(in.FDst)
		g.Emit(isa.Instr{Op: fpOp[in.Kind], Rd: rd, Rs1: ra, Rs2: rb})
		fl()
	case ir.OpSetCond:
		// Materialize a 0/1 value; machine-specific drivers may override
		// with better sequences, but this shared form works on both
		// machines: d = ((a - b) <cond-derived trick>) is complex, so use
		// the straightforward compare-free encoding below.
		return g.lowerSetCond(in)
	case ir.OpSetCondF:
		return g.lowerSetCondF(in)
	case ir.OpLoad:
		ra := g.UseInt(in.A, 0)
		base, off := g.memRef(ra, in.Off)
		rd, fl := g.DefInt(in.Dst)
		op := isa.OpLw
		if in.Size == 1 {
			op = isa.OpLb
		}
		g.Emit(isa.Instr{Op: op, Rd: rd, Rs1: base, UseImm: true, Imm: off})
		fl()
	case ir.OpLoadF:
		ra := g.UseInt(in.A, 0)
		base, off := g.memRef(ra, in.Off)
		rd, fl := g.DefFloat(in.FDst)
		g.Emit(isa.Instr{Op: isa.OpLf, Rd: rd, Rs1: base, UseImm: true, Imm: off})
		fl()
	case ir.OpStore:
		ra := g.UseInt(in.A, 0)
		rb := g.UseInt(in.B, 1)
		base, off := g.memRef(ra, in.Off)
		op := isa.OpSw
		if in.Size == 1 {
			op = isa.OpSb
		}
		g.Emit(isa.Instr{Op: op, Rd: rb, Rs1: base, UseImm: true, Imm: off})
	case ir.OpStoreF:
		ra := g.UseInt(in.A, 0)
		rb := g.UseFloat(in.FB, 0)
		base, off := g.memRef(ra, in.Off)
		g.Emit(isa.Instr{Op: isa.OpSf, Rd: rb, Rs1: base, UseImm: true, Imm: off})
	default:
		if in.Kind.IsBinALU() {
			return g.lowerALU(in)
		}
		return fmt.Errorf("codegen: LowerIns cannot lower %v", in.Kind)
	}
	return nil
}

func (g *Gen) lowerALU(in *ir.Ins) error {
	op := aluOp[in.Kind]
	ra := g.UseInt(in.A, 0)
	if in.UseImm {
		if g.M.FitsALUImm(in.Imm) {
			rd, fl := g.DefInt(in.Dst)
			g.Emit(isa.Instr{Op: op, Rd: rd, Rs1: ra, UseImm: true, Imm: int32(in.Imm)})
			fl()
			return nil
		}
		g.MaterializeImm(g.M.Tmp2Reg, int32(in.Imm))
		rd, fl := g.DefInt(in.Dst)
		g.Emit(isa.Instr{Op: op, Rd: rd, Rs1: ra, Rs2: g.M.Tmp2Reg})
		fl()
		return nil
	}
	rb := g.UseInt(in.B, 1)
	rd, fl := g.DefInt(in.Dst)
	g.Emit(isa.Instr{Op: op, Rd: rd, Rs1: ra, Rs2: rb})
	fl()
	return nil
}

func (g *Gen) lowerSetCond(in *ir.Ins) error {
	ra := g.UseInt(in.A, 0)
	cond := CondOf(in.Cond)
	if in.UseImm {
		if isa.FitsSigned(int32(in.Imm), g.M.SetImmBits) {
			rd, fl := g.DefInt(in.Dst)
			g.Emit(isa.Instr{Op: isa.OpSet, Cond: cond, Rd: rd, Rs1: ra, UseImm: true, Imm: int32(in.Imm)})
			fl()
			return nil
		}
		g.MaterializeImm(g.M.Tmp2Reg, int32(in.Imm))
		rd, fl := g.DefInt(in.Dst)
		g.Emit(isa.Instr{Op: isa.OpSet, Cond: cond, Rd: rd, Rs1: ra, Rs2: g.M.Tmp2Reg})
		fl()
		return nil
	}
	rb := g.UseInt(in.B, 1)
	rd, fl := g.DefInt(in.Dst)
	g.Emit(isa.Instr{Op: isa.OpSet, Cond: cond, Rd: rd, Rs1: ra, Rs2: rb})
	fl()
	return nil
}

func (g *Gen) lowerSetCondF(in *ir.Ins) error {
	ra := g.UseFloat(in.FA, 0)
	rb := g.UseFloat(in.FB, 1)
	rd, fl := g.DefInt(in.Dst)
	g.Emit(isa.Instr{Op: isa.OpFSet, Cond: CondOf(in.Cond), Rd: rd, Rs1: ra, Rs2: rb})
	fl()
	return nil
}

// floatConstLabel interns a float constant in the data segment.
func (g *Gen) floatConstLabel(v float64) string {
	for _, d := range g.Data {
		if d.Kind == isa.DataFloat && len(d.Floats) == 1 && d.Floats[0] == v {
			return d.Label
		}
	}
	lbl := fmt.Sprintf("Lfc.%s.%d", g.F.Name, g.ntab)
	g.ntab++
	g.Data = append(g.Data, &isa.DataItem{Label: lbl, Kind: isa.DataFloat, Floats: []float64{v}})
	return lbl
}

// NewTableLabel returns a fresh data label for a jump table.
func (g *Gen) NewTableLabel() string {
	lbl := fmt.Sprintf("Ljt.%s.%d", g.F.Name, g.ntab)
	g.ntab++
	return lbl
}
