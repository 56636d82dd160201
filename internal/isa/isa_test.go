package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Baseline.String() != "baseline" || BranchReg.String() != "branchreg" {
		t.Fatalf("unexpected kind strings: %v %v", Baseline, BranchReg)
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestCondNegate(t *testing.T) {
	pairs := map[Cond]Cond{
		CondEQ: CondNE, CondLT: CondGE, CondLE: CondGT,
	}
	for c, n := range pairs {
		if c.Negate() != n || n.Negate() != c {
			t.Errorf("negate(%v) = %v, want %v", c, c.Negate(), n)
		}
	}
	if CondAlways.Negate() != CondAlways {
		t.Error("CondAlways negation should be identity")
	}
}

func TestCondHoldsInt(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b int32
		want bool
	}{
		{CondEQ, 3, 3, true}, {CondEQ, 3, 4, false},
		{CondNE, 3, 4, true}, {CondNE, 3, 3, false},
		{CondLT, -1, 0, true}, {CondLT, 0, 0, false},
		{CondLE, 0, 0, true}, {CondLE, 1, 0, false},
		{CondGT, 1, 0, true}, {CondGT, 0, 0, false},
		{CondGE, 0, 0, true}, {CondGE, -1, 0, false},
		{CondAlways, 0, 99, true},
	}
	for _, tc := range cases {
		if got := tc.c.HoldsInt(tc.a, tc.b); got != tc.want {
			t.Errorf("%d %v %d = %v, want %v", tc.a, tc.c, tc.b, got, tc.want)
		}
	}
}

// Negation must be the logical complement for every comparable pair.
func TestCondNegateComplement(t *testing.T) {
	f := func(a, b int32, ci uint8) bool {
		c := Cond(ci%6) + CondEQ
		return c.HoldsInt(a, b) != c.Negate().HoldsInt(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCondHoldsFloat(t *testing.T) {
	if !CondLT.HoldsFloat(1.5, 2.5) || CondGE.HoldsFloat(1.5, 2.5) {
		t.Fatal("float comparisons wrong")
	}
	if !CondEQ.HoldsFloat(2.0, 2.0) {
		t.Fatal("float equality wrong")
	}
}

func TestSplitAddr(t *testing.T) {
	f := func(v int32) bool {
		hi, lo := SplitAddr(v)
		if lo < -2048 || lo > 2047 {
			return false
		}
		return hi<<12+lo == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, v := range []int32{0, 1, 0x7FF, 0x800, 0xFFF, 0x1000, DataBase, TextBase, -1} {
		hi, lo := SplitAddr(v)
		if hi<<12+lo != v {
			t.Errorf("SplitAddr(%#x) = (%#x,%d): does not reconstruct", v, hi, lo)
		}
	}
}

func TestFitsSigned(t *testing.T) {
	if !FitsSigned(2047, 12) || FitsSigned(2048, 12) {
		t.Fatal("12-bit upper bound wrong")
	}
	if !FitsSigned(-2048, 12) || FitsSigned(-2049, 12) {
		t.Fatal("12-bit lower bound wrong")
	}
}

// randomInstr generates a random encodable instruction for machine k.
func randomInstr(r *rand.Rand, k Kind) Instr {
	regs := BaselineDataRegs
	if k == BranchReg {
		regs = BRMDataRegs
	}
	reg := func() int { return r.Intn(regs) }
	br := func() int { return r.Intn(BRMBranchRegs) }
	cond := func() Cond { return Cond(r.Intn(6)) + CondEQ }
	simm := func(bits uint) int32 {
		span := int32(1) << (bits - 1)
		return r.Int31n(2*span) - span
	}
	var in Instr
	if k == BranchReg {
		in.BR = br()
	}
	var ops []Op
	if k == Baseline {
		ops = []Op{OpNop, OpAdd, OpSub, OpMul, OpAnd, OpSll, OpSethi, OpLw,
			OpLb, OpSw, OpSb, OpLf, OpSf, OpFadd, OpFneg, OpCvtif, OpTrap,
			OpCmp, OpFcmp, OpB, OpCall, OpJr, OpJalr}
	} else {
		ops = []Op{OpNop, OpAdd, OpSub, OpMul, OpAnd, OpSll, OpSethi, OpLw,
			OpLb, OpSw, OpSb, OpLf, OpSf, OpFadd, OpFneg, OpCvtif, OpTrap,
			OpBrCalc, OpBrLd, OpCmpBr, OpFCmpBr, OpMovBr, OpMovRB, OpMovBR}
	}
	in.Op = ops[r.Intn(len(ops))]
	in.Rs1, in.Rs2 = -1, -1
	switch in.Op {
	case OpNop:
	case OpB:
		in.Cond = cond()
		in.Imm = simm(20) * WordSize
		in.UseImm = true
	case OpCall:
		in.Imm = simm(24) * WordSize
		in.UseImm = true
	case OpJr, OpJalr:
		in.Rs1 = reg()
	case OpSethi:
		in.Rd = reg()
		in.Imm = r.Int31n(1 << 19)
		in.UseImm = true
	case OpCmp, OpFcmp:
		in.Cond = cond()
		in.Rs1 = reg()
		if in.Op == OpCmp && r.Intn(2) == 0 {
			in.UseImm = true
			in.Imm = simm(CmpImmBits(k))
		} else {
			in.Rs2 = reg()
		}
	case OpTrap:
		in.Imm = int32(r.Intn(4))
		in.UseImm = true
	case OpBrCalc:
		in.Rd = br()
		if r.Intn(2) == 0 {
			in.Rs1 = -1
			in.Imm = simm(16) * WordSize
		} else {
			in.Rs1 = reg()
			in.Imm = simm(12)
		}
		in.UseImm = true
	case OpBrLd:
		in.Rd = br()
		in.Rs1 = reg()
		in.Imm = simm(12)
		in.UseImm = true
	case OpCmpBr, OpFCmpBr:
		in.Cond = cond()
		in.BSrc = br()
		in.Rs1 = reg()
		if in.Op == OpCmpBr && r.Intn(2) == 0 {
			in.UseImm = true
			in.Imm = simm(11)
		} else {
			in.Rs2 = reg()
		}
	case OpMovBr:
		in.Rd = br()
		in.BSrc = br()
	case OpMovRB:
		in.Rd = reg()
		in.BSrc = br()
	case OpMovBR:
		in.Rd = br()
		in.Rs1 = reg()
	default: // ALU / mem / FP three-address
		in.Rd = reg()
		in.Rs1 = reg()
		if r.Intn(2) == 0 && !in.Op.IsFloat() {
			in.UseImm = true
			in.Imm = simm(ALUImmBits(k))
		} else {
			in.Rs2 = reg()
		}
	}
	return in
}

// canonical clears fields Decode cannot recover (it reports them as the
// defaults it uses), so encode→decode comparisons are meaningful.
func canonical(in Instr) Instr {
	in.Target, in.DataTarget, in.Comment = "", "", ""
	in.Lo = false
	switch in.Op {
	case OpNop, OpTrap:
		in.Rd, in.Rs1, in.Rs2, in.Cond, in.BSrc = 0, -1, -1, CondNone, 0
		if in.Op == OpNop {
			in.Imm, in.UseImm = 0, false
		} else {
			in.UseImm = true
		}
	case OpB, OpCall:
		in.Rd, in.Rs1, in.Rs2, in.BSrc = 0, -1, -1, 0
		in.UseImm = true
		if in.Op == OpCall {
			in.Cond = CondNone
		}
	case OpJr, OpJalr:
		in.Rd, in.Rs2, in.Imm, in.UseImm, in.Cond, in.BSrc = 0, -1, 0, false, CondNone, 0
	case OpSethi:
		in.Rs1, in.Rs2, in.Cond, in.BSrc = -1, -1, CondNone, 0
		in.UseImm = true
	case OpMovBr:
		in.Rs1, in.Rs2, in.Imm, in.UseImm, in.Cond = -1, -1, 0, false, CondNone
	case OpMovRB:
		in.Rs1, in.Rs2, in.Imm, in.UseImm, in.Cond = -1, -1, 0, false, CondNone
	case OpMovBR:
		in.Rs2, in.Imm, in.UseImm, in.Cond, in.BSrc = -1, 0, false, CondNone, 0
	case OpBrCalc, OpBrLd:
		in.Cond, in.BSrc = CondNone, 0
		in.UseImm = true
		if !in.UseImm {
			in.Rs2 = -1
		}
		in.Rs2 = -1
	case OpCmp, OpFcmp, OpCmpBr, OpFCmpBr:
		in.Rd = 0
		if in.Op == OpCmp || in.Op == OpFcmp {
			in.BSrc = 0
		}
	}
	if in.UseImm {
		in.Rs2 = -1
	} else {
		in.Imm = 0
	}
	return in
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, k := range []Kind{Baseline, BranchReg} {
		for i := 0; i < 5000; i++ {
			in := randomInstr(r, k)
			w, err := Encode(in, k)
			if err != nil {
				t.Fatalf("%v: encode %+v: %v", k, in, err)
			}
			out, err := Decode(w, k)
			if err != nil {
				t.Fatalf("%v: decode %#x: %v", k, w, err)
			}
			want, got := canonical(in), canonical(out)
			if want != got {
				t.Fatalf("%v round trip mismatch:\n in  %+v\n out %+v", k, want, got)
			}
		}
	}
}

func TestEncodeRejectsWrongMachine(t *testing.T) {
	if _, err := Encode(Instr{Op: OpBrCalc, Rs1: -1, UseImm: true}, Baseline); err == nil {
		t.Error("baseline must reject brcalc")
	}
	if _, err := Encode(Instr{Op: OpB, Cond: CondAlways, UseImm: true}, BranchReg); err == nil {
		t.Error("BRM must reject branch instructions")
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	// BRM has only 16 data registers; r20 must not encode.
	if _, err := Encode(Instr{Op: OpAdd, Rd: 20, Rs1: 1, Rs2: 2}, BranchReg); err == nil {
		t.Error("BRM must reject r20")
	}
	// Baseline immediate field is 15 bits signed.
	if _, err := Encode(Instr{Op: OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 1 << 20}, Baseline); err == nil {
		t.Error("baseline must reject oversized immediate")
	}
	// BRM immediate field is 12 bits signed.
	if _, err := Encode(Instr{Op: OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 5000}, BranchReg); err == nil {
		t.Error("BRM must reject 13-bit immediate")
	}
	if _, err := Encode(Instr{Op: OpB, Target: "L1"}, Baseline); err == nil {
		t.Error("unlinked instruction must not encode")
	}
}

func TestEncodeRejectsMisalignedDisp(t *testing.T) {
	// Branch and call displacements are word-granular; a byte-misaligned
	// displacement is a codegen bug and must come back as an error.
	if _, err := Encode(Instr{Op: OpB, Cond: CondAlways, UseImm: true, Imm: 6}, Baseline); err == nil {
		t.Error("baseline must reject misaligned branch displacement")
	}
	if _, err := Encode(Instr{Op: OpCall, UseImm: true, Imm: 10}, Baseline); err == nil {
		t.Error("baseline must reject misaligned call displacement")
	}
	if _, err := Encode(Instr{Op: OpBrCalc, Rd: 1, Rs1: -1, UseImm: true, Imm: 14}, BranchReg); err == nil {
		t.Error("BRM must reject misaligned brcalc displacement")
	}
}

// TestEncodeNeverPanics feeds adversarial operand garbage straight into
// Encode: every violation must surface as a returned error at the encode
// boundary — a panic here would take down a whole experiment process for
// one bad compilation.
func TestEncodeNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(20260806))
	extremes := []int32{-1 << 31, -5000, -33, -1, 0, 1, 2, 3, 31, 33, 4999, 1<<31 - 1}
	pick := func() int32 {
		if r.Intn(2) == 0 {
			return extremes[r.Intn(len(extremes))]
		}
		return int32(r.Uint32())
	}
	for i := 0; i < 20000; i++ {
		in := Instr{
			Op:     Op(r.Intn(64)),
			Cond:   Cond(r.Intn(16)),
			Rd:     int(pick()),
			Rs1:    int(pick()),
			Rs2:    int(pick()),
			BR:     int(pick()),
			BSrc:   int(pick()),
			Imm:    pick(),
			UseImm: r.Intn(2) == 0,
			Lo:     r.Intn(2) == 0,
		}
		for _, k := range []Kind{Baseline, BranchReg} {
			// Any panic fails the test; errors are the contract.
			_, _ = Encode(in, k)
		}
	}
}

func TestInstrPredicates(t *testing.T) {
	j := Instr{Op: OpB, Cond: CondAlways}
	if !j.IsTransfer(Baseline) || j.IsTransfer(BranchReg) {
		t.Error("OpB transfer classification wrong")
	}
	add := Instr{Op: OpAdd, BR: 3}
	if add.IsTransfer(Baseline) || !add.IsTransfer(BranchReg) {
		t.Error("BR-field transfer classification wrong")
	}
	cmp, addi := Instr{Op: OpCmp}, Instr{Op: OpAdd}
	if !cmp.SetsCC() || addi.SetsCC() {
		t.Error("SetsCC wrong")
	}
	blt, ba := Instr{Op: OpB, Cond: CondLT}, Instr{Op: OpB, Cond: CondAlways}
	if !blt.ReadsCC() || ba.ReadsCC() {
		t.Error("ReadsCC wrong")
	}
	if !OpLw.IsLoad() || !OpBrLd.IsLoad() || OpSw.IsLoad() {
		t.Error("IsLoad wrong")
	}
	if !OpSb.IsStore() || OpLb.IsStore() {
		t.Error("IsStore wrong")
	}
	if !OpFadd.IsFloat() || OpAdd.IsFloat() {
		t.Error("IsFloat wrong")
	}
}

func TestRTLNotation(t *testing.T) {
	cases := []struct {
		in   Instr
		k    Kind
		want string
	}{
		{Instr{Op: OpAdd, Rd: 3, Rs1: 1, Rs2: 2}, Baseline, "r[3]=r[1]+r[2]"},
		{Instr{Op: OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 1}, Baseline, "r[1]=r[1]+1"},
		{Instr{Op: OpCmpBr, Rs1: 5, UseImm: true, Imm: 0, Cond: CondLT, BSrc: 2}, BranchReg,
			"b[7]=r[5]<0->b[2]|b[0]"},
		{Instr{Op: OpNop, BR: 7}, BranchReg, "NL=NL; b[0]=b[7]"},
		{Instr{Op: OpB, Cond: CondEQ, Target: "L14"}, Baseline, "PC=CC==0->L14"},
		{Instr{Op: OpMovBr, Rd: 1, BSrc: 7}, BranchReg, "b[1]=b[7]"},
	}
	for _, tc := range cases {
		if got := tc.in.RTL(tc.k); got != tc.want {
			t.Errorf("RTL = %q, want %q", got, tc.want)
		}
	}
}

func TestLinkResolvesLabelsAndData(t *testing.T) {
	f := NewFunction("main", Baseline)
	f.Emit(Instr{Op: OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 7})
	f.Bind("L1")
	f.Emit(Instr{Op: OpB, Cond: CondAlways, Target: "L1"})
	f.Emit(Instr{Op: OpNop}) // delay slot
	f.Emit(Instr{Op: OpTrap, Imm: TrapExit, UseImm: true})

	g := NewFunction("helper", Baseline)
	g.Emit(Instr{Op: OpJr, Rs1: RABase})
	g.Emit(Instr{Op: OpNop})
	// Full data addresses resolve into the immediate; they expose the
	// data layout after Link.
	g.Emit(Instr{Op: OpAdd, Rd: 1, Rs1: 0, UseImm: true, DataTarget: "tbl"})
	g.Emit(Instr{Op: OpAdd, Rd: 1, Rs1: 0, UseImm: true, DataTarget: "pi"})

	p, err := Link(&Unit{Kind: Baseline, Funcs: []*Function{f, g},
		Data: []*DataItem{
			{Label: "msg", Kind: DataBytes, Bytes: []byte("hi\x00")},
			{Label: "tbl", Kind: DataAddrs, Addrs: []string{"main.L1", "helper"}},
			{Label: "buf", Kind: DataZero, Size: 64},
			{Label: "pi", Kind: DataFloat, Floats: []float64{3.25}},
		}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.EntryPC != 0 {
		t.Errorf("entry pc = %d", p.EntryPC)
	}
	// Branch displacement: from index 1 to index 1 is 0... target L1 is at
	// index 1, branch is at index 1, so disp = 0.
	if p.Text[1].Imm != 0 {
		t.Errorf("self-branch displacement = %d, want 0", p.Text[1].Imm)
	}
	if start(p, "helper") != 4 {
		t.Errorf("helper at index %d, want 4", start(p, "helper"))
	}
	word := func(addr int32) int32 {
		off := addr - DataBase
		return int32(p.DataImage[off]) | int32(p.DataImage[off+1])<<8 |
			int32(p.DataImage[off+2])<<16 | int32(p.DataImage[off+3])<<24
	}
	// tbl follows the 3-byte msg at the next word boundary.
	tblAddr := p.Text[6].Imm
	if tblAddr != DataBase+4 {
		t.Errorf("tbl at %#x, want %#x", tblAddr, DataBase+4)
	}
	// Jump table words hold resolved code addresses.
	if w0 := word(tblAddr); w0 != IndexToAddr(1) {
		t.Errorf("jump table word 0 = %#x, want main.L1 at %#x", w0, IndexToAddr(1))
	}
	if w1 := word(tblAddr + 4); w1 != IndexToAddr(4) {
		t.Errorf("jump table word 1 = %#x, want helper at %#x", w1, IndexToAddr(4))
	}
	// Alignment: pi must be 8-aligned even after odd-size msg and tables
	// (buf ends at DataBase+76).
	piAddr := p.Text[7].Imm
	if piAddr != DataBase+80 || piAddr%8 != 0 {
		t.Errorf("float at %#x, want 8-aligned %#x", piAddr, DataBase+80)
	}
	// Float image round-trips.
	foff := piAddr - DataBase
	var bits uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(p.DataImage[foff+int32(i)]) << (8 * i)
	}
	if FloatFromBits(bits) != 3.25 {
		t.Errorf("float in image = %v", FloatFromBits(bits))
	}
	// The image ends at the first 8-aligned address after static data.
	if len(p.DataImage) != 88 {
		t.Errorf("data image is %d bytes, want 88", len(p.DataImage))
	}
}

func TestLinkErrors(t *testing.T) {
	f := NewFunction("main", Baseline)
	f.Emit(Instr{Op: OpB, Cond: CondAlways, Target: "missing"})
	if _, err := Link(&Unit{Kind: Baseline, Funcs: []*Function{f}}, 0); err == nil {
		t.Error("unresolved label must fail")
	}
	if _, err := Link(&Unit{Kind: Baseline, Funcs: []*Function{NewFunction("notmain", Baseline)}}, 0); err == nil {
		t.Error("missing main must fail")
	}
	f3 := NewFunction("main", BranchReg)
	if _, err := Link(&Unit{Kind: Baseline, Funcs: []*Function{f3}}, 0); err == nil {
		t.Error("kind mismatch must fail")
	}
	f4 := NewFunction("main", Baseline)
	f4.Emit(Instr{Op: OpNop})
	u4 := &Unit{Kind: Baseline, Funcs: []*Function{f4},
		Data: []*DataItem{{Label: "x", Kind: DataWords, Words: []int32{1}},
			{Label: "x", Kind: DataWords, Words: []int32{2}}}}
	if _, err := Link(u4, 0); err == nil {
		t.Error("duplicate data symbol must fail")
	}
	f5 := NewFunction("main", Baseline)
	f5.Emit(Instr{Op: OpAdd, Rd: 200, Rs1: 0, UseImm: true})
	if _, err := Link(&Unit{Kind: Baseline, Funcs: []*Function{f5}}, 0); err == nil {
		t.Error("a register the linked record cannot hold must fail")
	}
}

func TestAddrToIndex(t *testing.T) {
	f := NewFunction("main", Baseline)
	for i := 0; i < 5; i++ {
		f.Emit(Instr{Op: OpNop})
	}
	p, err := Link(&Unit{Kind: Baseline, Funcs: []*Function{f}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		idx, err := p.AddrToIndex(IndexToAddr(i))
		if err != nil || idx != i {
			t.Fatalf("AddrToIndex(IndexToAddr(%d)) = %d, %v", i, idx, err)
		}
	}
	if _, err := p.AddrToIndex(TextBase + 2); err == nil {
		t.Error("misaligned address must fail")
	}
	if _, err := p.AddrToIndex(TextBase - 4); err == nil {
		t.Error("address below text must fail")
	}
	if _, err := p.AddrToIndex(IndexToAddr(5)); err == nil {
		t.Error("address past end must fail")
	}
}

func TestListing(t *testing.T) {
	f := NewFunction("main", BranchReg)
	f.Bind("L2")
	f.Emit(Instr{Op: OpAdd, Rd: 1, Rs1: 1, UseImm: true, Imm: 1, Comment: "increment"})
	s := f.Listing()
	if want := "L2:"; !contains(s, want) {
		t.Errorf("listing missing %q:\n%s", want, s)
	}
	if !contains(s, "r[1]=r[1]+1") || !contains(s, "increment") {
		t.Errorf("listing missing body:\n%s", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestLinkAlignment(t *testing.T) {
	mk := func(n int) *Function {
		f := NewFunction("main", Baseline)
		for i := 0; i < n; i++ {
			f.Emit(Instr{Op: OpAdd, Rd: 1, Rs1: 0, UseImm: true, Imm: 1})
		}
		f.Emit(Instr{Op: OpJr, Rs1: RABase})
		f.Emit(Instr{Op: OpNop})
		return f
	}
	g := NewFunction("helper", Baseline)
	g.Emit(Instr{Op: OpJr, Rs1: RABase})
	g.Emit(Instr{Op: OpNop})
	u := &Unit{Kind: Baseline, Funcs: []*Function{mk(3), g}}
	p, err := Link(u, 8)
	if err != nil {
		t.Fatal(err)
	}
	if start(p, "main") != 0 {
		t.Errorf("main at %d", start(p, "main"))
	}
	if start(p, "helper")%8 != 0 {
		t.Errorf("helper not aligned: index %d", start(p, "helper"))
	}
	// Padding must be noops that the function table places outside any
	// function.
	for i := 5; i < start(p, "helper"); i++ {
		if p.Text[i].Op != OpNop || p.FuncAt(i) != "" {
			t.Errorf("pad slot %d wrong: %v %q", i, p.Text[i].Op, p.FuncAt(i))
		}
	}
	for i, want := range map[int]string{0: "main", 4: "main", 8: "helper", 9: "helper", 10: "", -1: ""} {
		if got := p.FuncAt(i); got != want {
			t.Errorf("FuncAt(%d) = %q, want %q", i, got, want)
		}
	}
	// Linking the same unit without alignment gives a compact layout.
	p, err = Link(u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if start(p, "helper") != 5 {
		t.Errorf("compact link: helper at %d", start(p, "helper"))
	}
}

// start returns the Text index where function name begins, -1 if the
// program has no such function.
func start(p *Program, name string) int {
	for _, s := range p.Syms {
		if s.Name == name {
			return int(s.Start)
		}
	}
	return -1
}
