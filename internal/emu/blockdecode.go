package emu

//go:generate go run ./gen

import (
	"encoding/binary"

	"branchreg/internal/isa"
)

// This file lowers the predecoded micro-op stream (predecode.go) one level
// further, into the block-fused form the LoopFused engine executes: the
// text is segmented into basic blocks at transfer boundaries, function
// entries and branch targets; each block pre-links its fallthrough and
// taken successor *block indices* so chained dispatch never performs a
// PC→index lookup; and frequent adjacent micro-op pairs and triples are
// rewritten into fused superinstructions (see DESIGN §10 for the
// selection tables and how they were chosen from hot-block profiles).
//
// The fused engine must remain byte-identical to the fast loop, including
// trap PCs, trap ordering and step-budget accounting. Everything the fast
// loop could observe per instruction is therefore preserved per block:
//
//   - every fuop carries its original Text index for trap diagnostics;
//   - a block's cost (original instruction count) is known statically, so
//     one up-front check replaces the per-instruction budget test — and a
//     block that could cross the budget is delegated to the fast loop,
//     which reproduces the per-instruction accounting exactly;
//   - irregular blocks (a transfer in a delay slot, a transfer without a
//     delay slot) become ftBail blocks that delegate the rest of the run.

// FusionStats counts the fused engine's dynamic behavior for one run.
// Blocks is the number of basic blocks entered; Fused the number of
// original instructions retired as the second or third component of a
// superinstruction (dispatches saved by fusion); Bails the number of
// hand-offs to the per-instruction fast loop (irregular block, step
// budget within reach of the block, or a transfer landing inside a
// block).
type FusionStats struct {
	Blocks int64 `json:"blocks"`
	Fused  int64 `json:"fused"`
	Bails  int64 `json:"bails"`
}

// termKind classifies how a basic block ends.
type termKind uint8

const (
	ftBail      termKind = iota // irregular block: delegate to the fast loop
	ftFall                      // no transfer: fall into the next block
	ftExit                      // trap exit
	ftJump                      // baseline unconditional b + delay slot
	ftBCond                     // baseline conditional b + delay slot
	ftCmpBCond                  // fused cmp/fcmp + conditional b + delay slot
	ftCall                      // baseline call + delay slot
	ftJalr                      // baseline jalr + delay slot
	ftJr                        // baseline jr + delay slot
	ftBrm                       // BRM transfer-annotated micro-op
	ftBrmCmpBr                  // fused cmpbr/fcmpbr + transfer-annotated op
	ftBrmCalcBr                 // fused static brcalc + transfer-annotated op
	ftBrmSJmp                   // BRM transfer whose breg value is statically known
	ftBrmSCond                  // BRM transfer through a statically-resolved conditional breg
)

// fuop is one micro-op of a block body. It embeds the predecoded uop (so
// the shared dispatch cases compile unchanged) plus its original Text
// index for trap diagnostics and second/third operand sets for fused
// pairs and triples. The cond/bsrc rider fields of the embedded uop are
// shared by all components — the selection (gen/main.go) guarantees at
// most one component uses them.
type fuop struct {
	uop
	pc   int32 // original Text index
	imm2 int32 // second component's immediate
	imm3 int32 // third component's immediate
	rd2  uint8
	rs21 uint8
	rs22 uint8
	rd3  uint8
	rs31 uint8
	rs32 uint8
}

// Successor sentinels for fblock.taken / fblock.fall.
const (
	succHalt  = -1 // transfer to the halt address
	succTrap  = -2 // target index outside the text: pc-out-of-range trap
	succInner = -3 // target inside a block: delegate to the fast loop
)

// fblock is one basic block of the fused form. Body micro-ops live in
// fprog.ops[off:off+n]; the terminator (and, on the baseline machine, its
// delay-slot op) is stored out of line so the body loop stays branch-free.
// Field order is hot-first: everything the dispatch loop touches on a
// completed block (budget check, body range, terminator handling, chained
// successors) packs into the leading bytes; the delegation- and
// baseline-only fields trail.
type fblock struct {
	off     int32 // body range in fprog.ops
	n       int32
	cost    int32 // original instructions retired if the block completes
	termPC  int32 // Text index of the terminator instruction
	taken   int32 // taken-successor block index, or a succ* sentinel
	fall    int32 // fall-through successor block index, or a succ* sentinel
	tgt     int32 // static taken-target Text index (-1 = halt)
	retAddr int32 // BRM: byte address of the b[7] return side effect
	distK   int32 // ftBrmSJmp/ftBrmSCond: static prefetch distance to the target calc
	statK   uint8 // ftBrmCalcBr/ftBrmSJmp static stat class: 0 exit, 1 call, 2 jump
	lite    bool  // ftBrmCmpBr: companion cannot observe b[7], elide the store
	term    termKind
	tob     uop   // terminator micro-op
	cob     uop   // fused companion (cmp / cmpbr / brcalc)
	dob     uop   // baseline delay-slot micro-op
	start   int32 // first Text index (fast-loop entry point on delegation)
	fallIdx int32 // fall-through Text index (trap diagnostics, delegation)
	dpc     int32 // baseline: Text index of the delay-slot instruction
}

// fprog is the block-fused form of one program.
type fprog struct {
	ops      []fuop
	blocks   []fblock
	pc2block []int32 // Text index -> block index if a block starts there, else -1
	dec      []uop   // flat predecoded form, shared with the delegation path
	fused    int     // statically fused-away dispatches (bodies + terminators)
}

// fusedLeaders marks every Text index that can begin a basic block: the
// entry point, function entries, static branch targets, and — as a safety
// net for computed control flow — any text address found in an aligned
// data word or a materialized constant (jump tables, stored function
// pointers). False positives only shorten blocks; a missed leader only
// costs a delegation to the fast loop when something jumps to it.
func fusedLeaders(p *isa.Program, dec []uop) []bool {
	n := len(dec)
	leader := make([]bool, n)
	mark := func(i int) {
		if i >= 0 && i < n {
			leader[i] = true
		}
	}
	markAddr := func(a int32) {
		if a != haltAddr && a >= isa.TextBase && (a-isa.TextBase)%isa.WordSize == 0 {
			mark(int((a - isa.TextBase) / isa.WordSize))
		}
	}
	if n > 0 {
		leader[0] = true
	}
	mark(p.EntryPC)
	for _, idx := range p.FuncStarts {
		mark(idx)
	}
	for i := range dec {
		u := &dec[i]
		switch u.kind {
		case uJump, uBCond, uCall:
			mark(int(u.tgt))
		case uBrCalcAbs, uConst:
			markAddr(u.imm)
		}
	}
	img := p.DataImage
	for off := 0; off+4 <= len(img); off += 4 {
		markAddr(int32(binary.LittleEndian.Uint32(img[off:])))
	}
	return leader
}

// baselineBailKind reports whether a delay-slot micro-op makes the block
// irregular: a transfer or exit in a delay slot re-arms or consumes the
// pending target in ways only the per-instruction loop models.
func baselineBailKind(k uopKind) bool {
	switch k {
	case uJump, uBCond, uCall, uJalr, uJrRet, uJrJmp, uTrapExit:
		return true
	}
	return false
}

// writesBReg reports whether a micro-op writes any branch register, which
// disqualifies it from riding between a fused compare/brcalc and its
// transfer.
func writesBReg(k uopKind) bool {
	switch k {
	case uBrCalcAbs, uBrCalcReg, uBrLd, uCmpBrImm, uCmpBrReg, uFCmpBr, uMovBr, uMovBR:
		return true
	}
	return false
}

// symBreg is the statically-tracked value of one branch register within a
// block (everything resets to unknown at block entry: the fused engine
// only enters blocks at their leader). A known non-conditional value comes
// from an in-block brcalc with an immediate target: address, stat class
// and calc time (as an instruction offset) are all decode-time constants.
// A known conditional value comes from a compare-with-BR-assign whose
// source breg was itself known: it is either the propagated static target
// or the sequential sentinel, decided by a compare the block has already
// executed by the time its terminator transfers. movbb copies propagate
// either form; every other breg write makes the register unknown.
type symBreg struct {
	known bool
	cond  bool  // value is taken-target-or-seq from a tracked compare
	addr  int32 // static target byte address (never seq)
	pos   int32 // Text index of the originating brcalc (calc time)
}

// buildFprog lowers a predecoded program into block-fused form. With
// fuse set it rewrites superinstructions from the static tables (the
// program's fused form); without, it leaves every micro-op alone (the
// unfused block form PairStats measures raw adjacencies on).
func buildFprog(p *isa.Program, dec []uop, fuse bool) *fprog {
	n := len(dec)
	fp := &fprog{dec: dec, pc2block: make([]int32, n)}
	for i := range fp.pc2block {
		fp.pc2block[i] = -1
	}
	leader := fusedLeaders(p, dec)
	funcEntry := make([]bool, n)
	for _, idx := range p.FuncStarts {
		if idx >= 0 && idx < n {
			funcEntry[idx] = true
		}
	}
	baseline := p.Kind == isa.Baseline

	// scan builds one block starting at Text index start and returns it
	// with the index where the next block begins.
	scan := func(start int) (fblock, int) {
		b := fblock{
			start: int32(start),
			off:   int32(len(fp.ops)),
			tgt:   -1,
			taken: succInner,
			fall:  succInner,
		}
		var sym [8]symBreg
		updateSym := func(u uop, j int) {
			switch u.kind {
			case uBrCalcAbs:
				sym[u.rd] = symBreg{known: u.imm != seq, addr: u.imm, pos: int32(j)}
			case uCmpBrImm, uCmpBrReg, uFCmpBr:
				if src := sym[u.bsrc]; src.known && !src.cond {
					sym[isa.RABr] = symBreg{known: true, cond: true, addr: src.addr, pos: src.pos}
				} else {
					sym[isa.RABr] = symBreg{}
				}
			case uMovBr:
				sym[u.rd] = sym[u.bsrc]
			case uBrCalcReg, uBrLd, uMovBR:
				sym[u.rd] = symBreg{}
			}
		}
		seal := func(term termKind, termCost int32, next int) (fblock, int) {
			b.term = term
			b.n = int32(len(fp.ops)) - b.off
			orig := b.n
			// Rewrite hot adjacent triples and pairs into superinstructions
			// in place: greedy left to right, a triple before a pair.
			if fuse && b.n > 1 {
				src := fp.ops[b.off : b.off+b.n]
				out := src[:0]
				for i := 0; i < len(src); {
					k, step := uopKind(0), 1
					if i+2 < len(src) {
						if fk, ok := fuseTriple(src[i].kind, src[i+1].kind, src[i+2].kind); ok {
							k, step = fk, 3
						}
					}
					if step == 1 && i+1 < len(src) {
						if fk, ok := fusePair(src[i].kind, src[i+1].kind); ok {
							k, step = fk, 2
						}
					}
					switch step {
					case 3:
						f, s, t := src[i], &src[i+1], &src[i+2]
						f.kind = k
						f.imm2, f.rd2, f.rs21, f.rs22 = s.imm, s.rd, s.rs1, s.rs2
						f.imm3, f.rd3, f.rs31, f.rs32 = t.imm, t.rd, t.rs1, t.rs2
						if condUser(s.kind) {
							f.cond, f.bsrc = s.cond, s.bsrc
						}
						if condUser(t.kind) {
							f.cond, f.bsrc = t.cond, t.bsrc
						}
						out = append(out, f)
						i += 3
					case 2:
						f, s := src[i], &src[i+1]
						f.kind = k
						f.imm2, f.rd2, f.rs21, f.rs22 = s.imm, s.rd, s.rs1, s.rs2
						if condUser(s.kind) {
							f.cond, f.bsrc = s.cond, s.bsrc
						}
						out = append(out, f)
						i += 2
					default:
						out = append(out, src[i])
						i++
					}
				}
				fp.ops = fp.ops[:int(b.off)+len(out)]
				b.n = int32(len(out))
			}
			fp.fused += int(orig - b.n)
			b.cost = orig + termCost
			return b, next
		}
		j := start
		for {
			if j >= n || (j > start && leader[j]) {
				b.fallIdx = int32(j)
				return seal(ftFall, 0, j)
			}
			u := dec[j]
			if u.kind == uTrapExit {
				// On the BRM an annotated exit still halts before the
				// transfer applies, so exit terminates a block on both
				// machines.
				b.termPC = int32(j)
				return seal(ftExit, 1, j+1)
			}
			if baseline {
				switch u.kind {
				case uJump, uBCond, uCall, uJalr, uJrRet, uJrJmp:
					if j+1 >= n || baselineBailKind(dec[j+1].kind) {
						fp.ops = fp.ops[:b.off]
						next := j + 2
						if next > n {
							next = n
						}
						return fblock{start: int32(start), term: ftBail, taken: succInner, fall: succInner, tgt: -1}, next
					}
					b.tob = u
					b.termPC = int32(j)
					b.dob = dec[j+1]
					b.dpc = int32(j + 1)
					b.fallIdx = int32(j + 2)
					switch u.kind {
					case uJump:
						b.tgt = u.tgt
						return seal(ftJump, 2, j+2)
					case uBCond:
						b.tgt = u.tgt
						if fuse && int32(len(fp.ops)) > b.off {
							switch last := fp.ops[len(fp.ops)-1]; last.kind {
							case uCmpImm, uCmpReg, uFcmp:
								b.cob = last.uop
								fp.ops = fp.ops[:len(fp.ops)-1]
								fp.fused++
								return seal(ftCmpBCond, 3, j+2)
							}
						}
						return seal(ftBCond, 2, j+2)
					case uCall:
						b.tgt = u.tgt
						return seal(ftCall, 2, j+2)
					case uJalr:
						return seal(ftJalr, 2, j+2)
					default: // uJrRet, uJrJmp
						return seal(ftJr, 2, j+2)
					}
				}
			} else if u.br != isa.PCBr {
				b.tob = u
				b.termPC = int32(j)
				b.fallIdx = int32(j + 1)
				b.retAddr = isa.IndexToAddr(j) + isa.WordSize
				if fuse && int32(len(fp.ops)) > b.off && !writesBReg(u.kind) {
					last := fp.ops[len(fp.ops)-1]
					switch {
					case u.br == isa.RABr &&
						(last.kind == uCmpBrImm || last.kind == uCmpBrReg || last.kind == uFCmpBr):
						// cmp-with-BR-assign immediately feeding the
						// transfer through b[7].
						b.cob = last.uop
						fp.ops = fp.ops[:len(fp.ops)-1]
						fp.fused++
						b.lite = brmLiteSafe(u.kind)
						return seal(ftBrmCmpBr, 2, j+1)
					case last.kind == uBrCalcAbs && u.br == last.rd && last.imm != seq:
						// Static target calculation immediately feeding
						// its transfer: target, stat class and prefetch
						// distance (always 1) are known at decode time.
						b.cob = last.uop
						fp.ops = fp.ops[:len(fp.ops)-1]
						fp.fused++
						b.tgt = int32(addrToIndex(last.imm))
						switch t := addrToIndex(last.imm); {
						case t == -1:
							b.statK = 0
						case t >= 0 && t < n && funcEntry[t]:
							b.statK = 1
						default:
							b.statK = 2
						}
						return seal(ftBrmCalcBr, 2, j+1)
					}
				}
				// The transfer applies after the terminator op's own
				// effects, so fold those into the tracked state before
				// consulting it.
				updateSym(u, j)
				if s := sym[u.br]; s.known {
					b.tgt = int32(addrToIndex(s.addr))
					b.distK = int32(j) - s.pos
					if s.cond {
						return seal(ftBrmSCond, 1, j+1)
					}
					switch {
					case b.tgt == -1:
						b.statK = 0
					case b.tgt >= 0 && int(b.tgt) < n && funcEntry[b.tgt]:
						b.statK = 1
					default:
						b.statK = 2
					}
					return seal(ftBrmSJmp, 1, j+1)
				}
				return seal(ftBrm, 1, j+1)
			}
			fp.ops = append(fp.ops, fuop{uop: u, pc: int32(j)})
			updateSym(u, j)
			j++
		}
	}

	// Linear partition: blocks tile the text in order.
	for i := 0; i < n; {
		b, next := scan(i)
		fp.blocks = append(fp.blocks, b)
		fp.pc2block[i] = int32(len(fp.blocks) - 1)
		if next <= i {
			break // defensive: scan always advances
		}
		i = next
	}
	// A leader inside a delay slot is skipped by the linear partition;
	// give it an overlapping block of its own so jumps to it stay on the
	// fused path. (Overlap is fine: blocks are state-free code ranges.)
	for idx := 0; idx < n; idx++ {
		if leader[idx] && fp.pc2block[idx] < 0 {
			b, _ := scan(idx)
			fp.blocks = append(fp.blocks, b)
			fp.pc2block[idx] = int32(len(fp.blocks) - 1)
		}
	}

	// Resolve successor block indices.
	for bi := range fp.blocks {
		b := &fp.blocks[bi]
		resolve := func(idx int32) int32 {
			if idx < 0 || int(idx) >= n {
				return succTrap
			}
			if t := fp.pc2block[idx]; t >= 0 {
				return t
			}
			return succInner
		}
		switch b.term {
		case ftFall, ftBCond, ftCmpBCond, ftBrm, ftBrmCmpBr, ftBrmSCond:
			b.fall = resolve(b.fallIdx)
		}
		switch b.term {
		case ftJump, ftBCond, ftCmpBCond, ftCall, ftBrmCalcBr, ftBrmSJmp, ftBrmSCond:
			if b.tgt == -1 {
				b.taken = succHalt
			} else {
				b.taken = resolve(b.tgt)
			}
		}
	}
	return fp
}

// condUser reports whether a fused component kind carries the shared
// cond/bsrc rider fields of the fuop (the compare-with-BR-assign ops).
// The selection (gen/main.go) admits at most one such component per
// superinstruction.
func condUser(k uopKind) bool {
	switch k {
	case uCmpBrImm, uCmpBrReg, uFCmpBr:
		return true
	}
	return false
}

// brmLiteSafe reports whether a transfer-annotated micro-op riding a
// fused cmpbr can never observe the intermediate b[7] value the compare
// writes: it must not read or write branch registers and must not trap
// (a trapped machine exposes its branch registers to inspection). For
// such blocks the engine elides the intermediate store.
func brmLiteSafe(k uopKind) bool {
	switch k {
	case uNop, uAddImm, uAddReg, uSubImm, uSubReg, uMulImm, uMulReg,
		uAndImm, uAndReg, uOrImm, uOrReg, uXorImm, uXorReg,
		uSllImm, uSllReg, uSrlImm, uSrlReg, uSraImm, uSraReg,
		uConst, uSetImm, uSetReg, uFSet,
		uFadd, uFsub, uFmul, uFdiv, uFneg, uFmov, uCvtif, uCvtfi,
		uTrapGetc, uTrapPutc, uTrapPutf:
		return true
	}
	return false
}
