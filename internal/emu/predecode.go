package emu

import "branchreg/internal/isa"

// This file lowers a linked isa.Program's text (its 12-byte isa.Inst
// records) into the dense micro-op form the fast execution loop
// dispatches on. The one-time decode pass pays every
// per-instruction cost that does not depend on machine state exactly once:
//
//   - the immediate-vs-register operand split becomes two distinct micro-ops
//     per ALU/memory operation, so the run loop never tests UseImm;
//   - PC-relative branch displacements are pre-converted to Text indices
//     (baseline) or absolute byte targets (BRM brcalc), so taken transfers
//     skip the address arithmetic;
//   - sethi's shift is folded into the immediate;
//   - call/jalr link addresses (addr+8) are precomputed;
//   - operations the executing machine cannot perform become a single
//     uIllegal op carrying the original opcode, so the run loop's default
//     case never needs to re-classify.
//
// A uop is 16 bytes, so four dispatch units share a cache line and the
// hot loop's instruction stream stays resident.

// uopKind is the narrowed opcode set of the predecoded form.
type uopKind uint8

const (
	uNop uopKind = iota

	// Integer ALU, split by operand form: rd = rs1 op imm / rd = rs1 op rs2.
	uAddImm
	uAddReg
	uSubImm
	uSubReg
	uMulImm
	uMulReg
	uDivImm
	uDivReg
	uRemImm
	uRemReg
	uAndImm
	uAndReg
	uOrImm
	uOrReg
	uXorImm
	uXorReg
	uSllImm
	uSllReg
	uSrlImm
	uSrlReg
	uSraImm
	uSraReg

	// uConst materializes a precomputed constant (sethi's imm<<12 is folded
	// at decode time): rd = imm.
	uConst

	// Comparison materialization.
	uSetImm
	uSetReg
	uFSet

	// Memory. Address is rs1 + imm or rs1 + rs2.
	uLwImm
	uLwReg
	uLbImm
	uLbReg
	uSwImm
	uSwReg
	uSbImm
	uSbReg
	uLfImm
	uLfReg
	uSfImm
	uSfReg

	// Floating point.
	uFadd
	uFsub
	uFmul
	uFdiv
	uFneg
	uFmov
	uCvtif
	uCvtfi

	// System traps, one kind per service code; uTrapBad carries an unknown
	// code in imm and raises illegal-instruction at execution.
	uTrapExit
	uTrapGetc
	uTrapPutc
	uTrapPutf
	uTrapBad

	// ---- baseline control flow (tgt = pre-resolved Text index or -1) ----

	uCmpImm
	uCmpReg
	uFcmp
	uJump  // unconditional OpB
	uBCond // conditional OpB
	uCall  // tgt = target index, imm = link address (addr+8)
	uJalr  // dynamic target r[rs1], imm = link address
	uJrRet // jr through r[RABase]: counts as a return
	uJrJmp // jr through any other register: counts as a jump

	// ---- BRM operations ----

	uBrCalcAbs // imm = absolute byte target (PC-relative form, pre-resolved)
	uBrCalcReg // target = r[rs1] + imm (low part after sethi)
	uBrLd      // target = M[r[rs1] + imm]
	uCmpBrImm
	uCmpBrReg
	uFCmpBr
	uMovBr
	uMovRB
	uMovBR

	// uIllegal is any operation the executing machine does not implement;
	// imm holds the original isa.Op for the trap message.
	uIllegal
)

// uop is one predecoded micro-operation. Field use depends on kind; br is
// the BRM next-instruction branch-register field (0 on the baseline).
type uop struct {
	imm  int32
	tgt  int32 // baseline: pre-resolved branch-target Text index (-1 = halt)
	kind uopKind
	rd   uint8
	rs1  uint8
	rs2  uint8
	br   uint8
	bsrc uint8
	cond uint8 // isa.Cond
}

// addrToIndex is addrIndex without a machine: byte address to Text index,
// with the halt address mapping to -1.
func addrToIndex(target int32) int {
	if target == haltAddr {
		return -1
	}
	return int((target - isa.TextBase) / isa.WordSize)
}

// predecode lowers every instruction of a linked program. It never fails:
// undecodable instructions become uIllegal ops that trap on execution with
// the same diagnostics the instrumented loop produces.
func predecode(p *isa.Program) []uop {
	ops := make([]uop, len(p.Text))
	for i := range p.Text {
		ops[i] = lowerInstr(p.Kind, &p.Text[i], isa.IndexToAddr(i))
	}
	return ops
}

// aluPair builds the imm/reg split for a three-address operation.
func aluPair(immKind, regKind uopKind, in *isa.Inst) uop {
	u := uop{rd: uint8(in.Rd), rs1: uint8(in.Rs1)}
	if in.UseImm {
		u.kind = immKind
		u.imm = in.Imm
	} else {
		u.kind = regKind
		u.rs2 = uint8(in.Rs2)
	}
	return u
}

// lowerInstr translates one instruction at byte address addr for machine
// kind k.
func lowerInstr(k isa.Kind, in *isa.Inst, addr int32) uop {
	var u uop
	switch in.Op {
	case isa.OpNop:
		u = uop{kind: uNop}
	case isa.OpAdd:
		u = aluPair(uAddImm, uAddReg, in)
	case isa.OpSub:
		u = aluPair(uSubImm, uSubReg, in)
	case isa.OpMul:
		u = aluPair(uMulImm, uMulReg, in)
	case isa.OpDiv:
		u = aluPair(uDivImm, uDivReg, in)
	case isa.OpRem:
		u = aluPair(uRemImm, uRemReg, in)
	case isa.OpAnd:
		u = aluPair(uAndImm, uAndReg, in)
	case isa.OpOr:
		u = aluPair(uOrImm, uOrReg, in)
	case isa.OpXor:
		u = aluPair(uXorImm, uXorReg, in)
	case isa.OpSll:
		u = aluPair(uSllImm, uSllReg, in)
	case isa.OpSrl:
		u = aluPair(uSrlImm, uSrlReg, in)
	case isa.OpSra:
		u = aluPair(uSraImm, uSraReg, in)
	case isa.OpSethi:
		u = uop{kind: uConst, rd: uint8(in.Rd), imm: in.Imm << 12}
	case isa.OpSet:
		u = aluPair(uSetImm, uSetReg, in)
		u.cond = uint8(in.Cond)
	case isa.OpFSet:
		u = uop{kind: uFSet, rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2), cond: uint8(in.Cond)}
	case isa.OpLw:
		u = aluPair(uLwImm, uLwReg, in)
	case isa.OpLb:
		u = aluPair(uLbImm, uLbReg, in)
	case isa.OpSw:
		u = aluPair(uSwImm, uSwReg, in)
	case isa.OpSb:
		u = aluPair(uSbImm, uSbReg, in)
	case isa.OpLf:
		u = aluPair(uLfImm, uLfReg, in)
	case isa.OpSf:
		u = aluPair(uSfImm, uSfReg, in)
	case isa.OpFadd:
		u = uop{kind: uFadd, rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2)}
	case isa.OpFsub:
		u = uop{kind: uFsub, rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2)}
	case isa.OpFmul:
		u = uop{kind: uFmul, rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2)}
	case isa.OpFdiv:
		u = uop{kind: uFdiv, rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2)}
	case isa.OpFneg:
		u = uop{kind: uFneg, rd: uint8(in.Rd), rs1: uint8(in.Rs1)}
	case isa.OpFmov:
		u = uop{kind: uFmov, rd: uint8(in.Rd), rs1: uint8(in.Rs1)}
	case isa.OpCvtif:
		u = uop{kind: uCvtif, rd: uint8(in.Rd), rs1: uint8(in.Rs1)}
	case isa.OpCvtfi:
		u = uop{kind: uCvtfi, rd: uint8(in.Rd), rs1: uint8(in.Rs1)}
	case isa.OpTrap:
		switch in.Imm {
		case isa.TrapExit:
			u = uop{kind: uTrapExit}
		case isa.TrapGetc:
			u = uop{kind: uTrapGetc}
		case isa.TrapPutc:
			u = uop{kind: uTrapPutc}
		case isa.TrapPutf:
			u = uop{kind: uTrapPutf}
		default:
			u = uop{kind: uTrapBad, imm: in.Imm}
		}

	case isa.OpCmp:
		if k != isa.Baseline {
			return illegalUop(in)
		}
		u = aluPair(uCmpImm, uCmpReg, in)
	case isa.OpFcmp:
		if k != isa.Baseline {
			return illegalUop(in)
		}
		u = uop{kind: uFcmp, rs1: uint8(in.Rs1), rs2: uint8(in.Rs2)}
	case isa.OpB:
		if k != isa.Baseline {
			return illegalUop(in)
		}
		u = uop{tgt: int32(addrToIndex(addr + in.Imm)), cond: uint8(in.Cond)}
		if in.Cond == isa.CondAlways {
			u.kind = uJump
		} else {
			u.kind = uBCond
		}
	case isa.OpCall:
		if k != isa.Baseline {
			return illegalUop(in)
		}
		u = uop{kind: uCall, tgt: int32(addrToIndex(addr + in.Imm)), imm: addr + 8}
	case isa.OpJalr:
		if k != isa.Baseline {
			return illegalUop(in)
		}
		u = uop{kind: uJalr, rs1: uint8(in.Rs1), imm: addr + 8}
	case isa.OpJr:
		if k != isa.Baseline {
			return illegalUop(in)
		}
		u = uop{kind: uJrJmp, rs1: uint8(in.Rs1)}
		if in.Rs1 == isa.RABase {
			u.kind = uJrRet
		}

	case isa.OpBrCalc:
		if k != isa.BranchReg {
			return illegalUop(in)
		}
		if in.Rs1 >= 0 {
			u = uop{kind: uBrCalcReg, rd: uint8(in.Rd), rs1: uint8(in.Rs1), imm: in.Imm}
		} else {
			u = uop{kind: uBrCalcAbs, rd: uint8(in.Rd), imm: addr + in.Imm}
		}
	case isa.OpBrLd:
		if k != isa.BranchReg {
			return illegalUop(in)
		}
		u = uop{kind: uBrLd, rd: uint8(in.Rd), rs1: uint8(in.Rs1), imm: in.Imm}
	case isa.OpCmpBr:
		if k != isa.BranchReg {
			return illegalUop(in)
		}
		u = aluPair(uCmpBrImm, uCmpBrReg, in)
		u.cond = uint8(in.Cond)
		u.bsrc = uint8(in.BSrc)
	case isa.OpFCmpBr:
		if k != isa.BranchReg {
			return illegalUop(in)
		}
		u = uop{kind: uFCmpBr, rs1: uint8(in.Rs1), rs2: uint8(in.Rs2), cond: uint8(in.Cond), bsrc: uint8(in.BSrc)}
	case isa.OpMovBr:
		if k != isa.BranchReg {
			return illegalUop(in)
		}
		u = uop{kind: uMovBr, rd: uint8(in.Rd), bsrc: uint8(in.BSrc)}
	case isa.OpMovRB:
		if k != isa.BranchReg {
			return illegalUop(in)
		}
		u = uop{kind: uMovRB, rd: uint8(in.Rd), bsrc: uint8(in.BSrc)}
	case isa.OpMovBR:
		if k != isa.BranchReg {
			return illegalUop(in)
		}
		u = uop{kind: uMovBR, rd: uint8(in.Rd), rs1: uint8(in.Rs1)}

	default:
		return illegalUop(in)
	}
	if k == isa.BranchReg {
		u.br = uint8(in.BR)
	}
	return u
}

func illegalUop(in *isa.Inst) uop {
	u := uop{kind: uIllegal, imm: int32(in.Op)}
	if in.BR > 0 {
		u.br = uint8(in.BR)
	}
	return u
}
