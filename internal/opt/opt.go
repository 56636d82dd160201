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

// run optimizes the function in place and re-runs CFG analysis.
func run(f *ir.Func, o Options, s *scratch) error {
	s.fit(f)
	for round := 0; round < 3; round++ {
		changed := false
		if o.Fold {
			changed = foldConstants(f, s) || changed
		}
		if o.CopyProp {
			changed = copyProp(f, s) || changed
		}
		if o.CSE {
			changed = localCSE(f, s) || changed
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
				copyProp(f, s)
			}
			if o.DCE {
				deadCode(f)
			}
		}
	}
	return f.Analyze()
}

// RunUnit optimizes every function in the unit. Every pass over every
// function takes its per-register tables from one scratch.
func RunUnit(u *ir.Unit, o Options) error {
	s := new(scratch)
	for _, f := range u.Funcs {
		if err := run(f, o, s); err != nil {
			return fmt.Errorf("opt: %s: %w", f.Name, err)
		}
	}
	return nil
}

// scratch is the per-register state of the block-local passes
// (foldConstants, copyProp, localCSE), held in dense tables indexed by
// vreg and grown to each function's register counts. Nothing is cleared
// between blocks or functions. A constant or copy entry is live only
// while its stamp equals the current block's, and a copy or available
// expression recorded against a register's version dies as soon as that
// register is defined again, so every kill is O(1).
type scratch struct {
	block      uint32   // stamp of the block being scanned; 0 is never current
	verI, verF []uint32 // per-vreg versions: definitions seen so far

	constVal   []int32 // foldConstants: value of a known-constant int vreg
	constStamp []uint32

	copyI, copyF copies // copyProp

	avail  map[cseKey]cseEntry // localCSE: the block's available expressions
	mem    uint32              // localCSE: memory epoch, bumped by stores and calls
	is, fs []ir.Reg
}

// copies records, per vreg, the register it holds a copy of.
type copies struct {
	src   []ir.Reg
	ver   []uint32 // the source's version when the copy was made
	stamp []uint32
}

// fit grows the tables to f's register counts; new entries are dead.
func (s *scratch) fit(f *ir.Func) {
	s.verI = fit(s.verI, f.NumInt)
	s.verF = fit(s.verF, f.NumFloat)
	s.constVal = fit(s.constVal, f.NumInt)
	s.constStamp = fit(s.constStamp, f.NumInt)
	s.copyI.fit(f.NumInt)
	s.copyF.fit(f.NumFloat)
}

func (c *copies) fit(n int) {
	c.src = fit(c.src, n)
	c.ver = fit(c.ver, n)
	c.stamp = fit(c.stamp, n)
}

func fit[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// nextBlock starts a block: every stamped entry of the last one dies.
func (s *scratch) nextBlock() {
	s.block++
	if s.block == 0 {
		clear(s.constStamp)
		clear(s.copyI.stamp)
		clear(s.copyF.stamp)
		s.block = 1
	}
}

// define bumps the versions of the registers an instruction writes.
func (s *scratch) define(di, df ir.Reg) {
	if di != ir.None {
		s.verI[di]++
	}
	if df != ir.None {
		s.verF[df]++
	}
}

// ---- constant folding / propagation ----

// known returns the constant int vreg r holds in the current block.
func (s *scratch) known(r ir.Reg) (int32, bool) {
	if uint(r) < uint(len(s.constStamp)) && s.constStamp[r] == s.block {
		return s.constVal[r], true
	}
	return 0, false
}

func foldConstants(f *ir.Func, s *scratch) bool {
	changed := false
	for _, b := range f.Blocks {
		s.nextBlock()
		for i := range b.Ins {
			in := &b.Ins[i]
			// Propagate a known-constant B operand into the immediate field.
			usesB := (in.Kind.IsBinALU() || in.Kind == ir.OpSetCond || in.Kind == ir.OpBr) && !in.UseImm
			if usesB {
				if v, ok := s.known(in.B); ok {
					in.UseImm = true
					in.Imm = int64(v)
					in.B = ir.None
					changed = true
				}
			}
			// Fold fully-constant ALU ops.
			if in.Kind.IsBinALU() && in.UseImm {
				if a, ok := s.known(in.A); ok {
					if v, ok2 := evalALU(in.Kind, a, int32(in.Imm)); ok2 {
						*in = ir.Ins{Kind: ir.OpConst, Dst: in.Dst, Imm: int64(v)}
						changed = true
					}
				}
			}
			if in.Kind == ir.OpSetCond && in.UseImm {
				if a, ok := s.known(in.A); ok {
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
			if di, _ := in.Defs(); di != ir.None {
				if in.Kind == ir.OpConst {
					s.constVal[di] = int32(in.Imm)
					s.constStamp[di] = s.block
				} else {
					s.constStamp[di] = 0
				}
			}
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

// resolve returns the register r is a copy of in the current block, or
// r. An entry dies with its block, when its destination is redefined
// (the stamp is reset) or when its source is (the version moves on).
func (c *copies) resolve(r ir.Reg, ver []uint32, block uint32) ir.Reg {
	if uint(r) < uint(len(c.stamp)) && c.stamp[r] == block && ver[c.src[r]] == c.ver[r] {
		return c.src[r]
	}
	return r
}

func (c *copies) set(dst, src ir.Reg, ver []uint32, block uint32) {
	c.src[dst], c.ver[dst], c.stamp[dst] = src, ver[src], block
}

func copyProp(f *ir.Func, s *scratch) bool {
	changed := false
	rewrite := func(p *ir.Reg, c *copies, ver []uint32) {
		if n := c.resolve(*p, ver, s.block); n != *p {
			*p = n
			changed = true
		}
	}
	for _, b := range f.Blocks {
		s.nextBlock()
		for i := range b.Ins {
			in := &b.Ins[i]
			// Rewrite sources (unused fields too: they resolve to themselves
			// unless they name a register with a live copy).
			rewrite(&in.A, &s.copyI, s.verI)
			rewrite(&in.B, &s.copyI, s.verI)
			rewrite(&in.FA, &s.copyF, s.verF)
			rewrite(&in.FB, &s.copyF, s.verF)
			for j := range in.Args {
				if in.Args[j].Float {
					rewrite(&in.Args[j].R, &s.copyF, s.verF)
				} else {
					rewrite(&in.Args[j].R, &s.copyI, s.verI)
				}
			}
			di, df := in.Defs()
			s.define(di, df)
			if di != ir.None {
				s.copyI.stamp[di] = 0
			}
			if df != ir.None {
				s.copyF.stamp[df] = 0
			}
			if in.Kind == ir.OpMov && in.Dst != in.A {
				s.copyI.set(in.Dst, in.A, s.verI, s.block)
			}
			if in.Kind == ir.OpMovF && in.FDst != in.FA {
				s.copyF.set(in.FDst, in.FA, s.verF, s.block)
			}
		}
	}
	return changed
}

// ---- local common subexpression elimination ----

// cseKey names a computed value: the operation, its fields, and the
// versions of the registers it reads, so a redefined source makes a new
// key instead of deleting old ones. A load's key also carries the memory
// epoch, so a store or call retires every earlier load at once.
type cseKey struct {
	kind             ir.OpKind
	cond             ir.Cond
	useImm           bool
	a, b, fa, fb     ir.Reg
	va, vb, vfa, vfb uint32
	mem              uint32
	imm              int64
	fimm             float64
	sym              string
	slot, off, size  int32
}

// cseEntry is the instruction that computed a key's value: its
// destinations and their versions right after it. Once a destination
// is redefined the value is gone from it, and a lookup misses.
type cseEntry struct {
	dst, fdst ir.Reg
	ver, fver uint32
}

func (s *scratch) live(e cseEntry) bool {
	return (e.dst == ir.None || s.verI[e.dst] == e.ver) &&
		(e.fdst == ir.None || s.verF[e.fdst] == e.fver)
}

func localCSE(f *ir.Func, s *scratch) bool {
	changed := false
	if s.avail == nil {
		s.avail = map[cseKey]cseEntry{}
	}
	for _, b := range f.Blocks {
		clear(s.avail)
		for i := range b.Ins {
			in := &b.Ins[i]
			switch in.Kind {
			case ir.OpStore, ir.OpStoreF, ir.OpCall:
				s.mem++
			}
			if !cseable(in.Kind) {
				s.define(in.Defs())
				continue
			}
			// Build the key from the registers the instruction actually
			// reads (unused operand fields are not reliably None).
			k := cseKey{kind: in.Kind, a: ir.None, b: ir.None, fa: ir.None,
				fb: ir.None, imm: in.Imm, fimm: in.FImm, useImm: in.UseImm,
				cond: in.Cond, sym: in.Sym, slot: in.Slot, off: in.Off,
				size: in.Size}
			s.is, s.fs = in.Uses(s.is[:0], s.fs[:0])
			is, fs := s.is, s.fs
			if len(is) > 0 {
				k.a, k.va = is[0], s.verI[is[0]]
			}
			if len(is) > 1 {
				k.b, k.vb = is[1], s.verI[is[1]]
			}
			if len(fs) > 0 {
				k.fa, k.vfa = fs[0], s.verF[fs[0]]
			}
			if len(fs) > 1 {
				k.fb, k.vfb = fs[1], s.verF[fs[1]]
			}
			if in.Kind == ir.OpLoad || in.Kind == ir.OpLoadF {
				k.mem = s.mem
			}
			di, df := in.Defs()
			if prev, ok := s.avail[k]; ok && s.live(prev) {
				if di != ir.None && prev.dst != ir.None {
					*in = ir.Ins{Kind: ir.OpMov, Dst: di, A: prev.dst}
					changed = true
				} else if df != ir.None && prev.fdst != ir.None {
					*in = ir.Ins{Kind: ir.OpMovF, FDst: df, FA: prev.fdst}
					changed = true
				}
				s.define(in.Defs())
				continue
			}
			s.define(di, df)
			// Only record if the destination is not also a source (else the
			// value is destroyed immediately).
			if (di != ir.None && slices.Contains(is, di)) || (df != ir.None && slices.Contains(fs, df)) {
				continue
			}
			e := cseEntry{dst: di, fdst: df}
			if di != ir.None {
				e.ver = s.verI[di]
			}
			if df != ir.None {
				e.fver = s.verF[df]
			}
			s.avail[k] = e
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
