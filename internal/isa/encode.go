package isa

import "fmt"

// This file implements 32-bit instruction encodings for both machines,
// following the format families of the paper's Figures 10 (baseline) and 11
// (branch-register machine). The encodings exist to demonstrate that the
// designed instruction sets actually fit in 32-bit words with the stated
// field widths — the emulator executes decoded Instr values, and
// encode/decode round-trip is enforced by tests.
//
// Baseline formats (op = bits [31:26]):
//
//	branch     op | cond(4) | disp22 (signed word displacement)
//	call       op | disp26  (signed word displacement)
//	jr/jalr    op | rs1(5) | 0...
//	sethi      op | rd(5) | imm21 (rd = imm << 12)
//	alu/mem    op | rd(5) | rs1(5) | i(1) | imm15 (signed) or 0...rs2(5)
//	cmp        op | cond(4) | rs1(5) | i(1) | imm15 or 0...rs2(5)
//	trap       op | imm26
//
// BRM formats (op = bits [31:26], br = bits [2:0] in every instruction):
//
//	alu/mem    op | rd(4) | rs1(4) | i(1) | imm12 (signed) or 0...rs2(4) | br
//	sethi      op | rd(4) | imm19 | br
//	brcalc pc  op | brd(3) | disp18 (signed words) | 0(2) | br
//	brcalc lo  op | brd(3) | rs1(4) | imm12 | 0... | br
//	brld       op | brd(3) | rs1(4) | imm12 | 0... | br
//	cmpbr      op | cond(4) | bsrc(3) | rs1(4) | i(1) | imm11 or rs2(4) | br
//	movbr      op | brd(3) | bsrc(3) or rd/rs1(4) | br
//	trap       op | imm23 | br

// enc accumulates instruction fields, capturing the first operand-range
// or alignment violation as an error instead of panicking: a codegen bug
// must fail that one compilation, not the process. The zero value is
// ready to use.
type enc struct {
	w   uint32
	err error
}

// failf records the first failure; later fields become no-ops.
func (e *enc) failf(format string, args ...interface{}) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// field packs v into w bits at offset off, recording an error if it does
// not fit.
func (e *enc) field(v int32, w, off uint, signed bool, what string) {
	if signed {
		if !FitsSigned(v, w) {
			e.failf("isa: %s %d does not fit %d signed bits", what, v, w)
			return
		}
	} else if v < 0 || uint32(v) >= 1<<w {
		e.failf("isa: %s %d does not fit %d unsigned bits", what, v, w)
		return
	}
	e.w |= (uint32(v) & (1<<w - 1)) << off
}

// wordDisp converts a byte displacement to a word displacement, recording
// an error on misalignment.
func (e *enc) wordDisp(byteDisp int32) int32 {
	if byteDisp%WordSize != 0 {
		e.failf("isa: misaligned displacement %d", byteDisp)
		return 0
	}
	return byteDisp / WordSize
}

func extract(word uint32, w, off uint, signed bool) int32 {
	v := int32((word >> off) & (1<<w - 1))
	if signed && v >= 1<<(w-1) {
		v -= 1 << w
	}
	return v
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Encode packs the instruction into a 32-bit word for machine k.
// Instructions must be linked (no unresolved symbolic targets).
// Operand-range and alignment violations come back as errors — the
// encode boundary is where a codegen bug must surface without taking
// down the process.
func Encode(in Instr, k Kind) (uint32, error) {
	if in.Target != "" || in.DataTarget != "" {
		return 0, fmt.Errorf("isa: cannot encode unlinked instruction (target %q%q)", in.Target, in.DataTarget)
	}
	var e enc
	if k == Baseline {
		encodeBase(&e, in)
	} else {
		encodeBRM(&e, in)
	}
	if e.err != nil {
		return 0, e.err
	}
	return e.w, nil
}

func encodeBase(e *enc, in Instr) {
	if in.Op.IsBRMOnly() {
		e.failf("isa: %v is not a baseline op", in.Op)
		return
	}
	e.field(int32(in.Op), 6, 26, false, "opcode")
	checkReg := func(r int, what string) {
		if r < 0 || r >= BaselineDataRegs {
			e.failf("isa: baseline %s register %d out of range", what, r)
		}
	}
	switch in.Op {
	case OpNop:
	case OpB:
		e.field(int32(in.Cond), 4, 22, false, "cond")
		e.field(e.wordDisp(in.Imm), 22, 0, true, "branch disp")
	case OpCall:
		e.field(e.wordDisp(in.Imm), 26, 0, true, "call disp")
	case OpJr, OpJalr:
		checkReg(in.Rs1, "rs1")
		e.field(int32(in.Rs1), 5, 21, false, "rs1")
	case OpSethi:
		checkReg(in.Rd, "rd")
		e.field(int32(in.Rd), 5, 21, false, "rd")
		e.field(in.Imm, 21, 0, false, "sethi imm")
	case OpCmp, OpFcmp:
		e.field(int32(in.Cond), 4, 22, false, "cond")
		checkReg(in.Rs1, "rs1")
		e.field(int32(in.Rs1), 5, 17, false, "rs1")
		e.field(b2i(in.UseImm), 1, 16, false, "i")
		if in.UseImm {
			e.field(in.Imm, 15, 0, true, "cmp imm")
		} else {
			checkReg(in.Rs2, "rs2")
			e.field(int32(in.Rs2), 5, 0, false, "rs2")
		}
	case OpSet, OpFSet:
		e.field(int32(in.Cond), 4, 22, false, "cond")
		checkReg(in.Rd, "rd")
		e.field(int32(in.Rd), 5, 17, false, "rd")
		checkReg(in.Rs1, "rs1")
		e.field(int32(in.Rs1), 5, 12, false, "rs1")
		e.field(b2i(in.UseImm), 1, 11, false, "i")
		if in.UseImm {
			e.field(in.Imm, 11, 0, true, "set imm")
		} else {
			checkReg(in.Rs2, "rs2")
			e.field(int32(in.Rs2), 5, 0, false, "rs2")
		}
	case OpTrap:
		e.field(in.Imm, 26, 0, false, "trap code")
	default: // ALU, memory, FP
		rd := in.Rd
		if rd < 0 {
			rd = 0
		}
		checkReg(rd, "rd")
		e.field(int32(rd), 5, 21, false, "rd")
		rs1 := in.Rs1
		if rs1 < 0 {
			rs1 = 0
		}
		checkReg(rs1, "rs1")
		e.field(int32(rs1), 5, 16, false, "rs1")
		e.field(b2i(in.UseImm), 1, 15, false, "i")
		if in.UseImm {
			e.field(in.Imm, 15, 0, true, "imm")
		} else {
			rs2 := in.Rs2
			if rs2 < 0 {
				rs2 = 0
			}
			checkReg(rs2, "rs2")
			e.field(int32(rs2), 5, 0, false, "rs2")
		}
	}
}

func encodeBRM(e *enc, in Instr) {
	if in.Op.IsBaselineBranch() || in.Op == OpCmp || in.Op == OpFcmp {
		e.failf("isa: %v is not a BRM op", in.Op)
		return
	}
	e.field(int32(in.Op), 6, 26, false, "opcode")
	e.field(int32(in.BR), 3, 0, false, "br")
	checkReg := func(r int, what string) {
		if r < 0 || r >= BRMDataRegs {
			e.failf("isa: BRM %s register %d out of range", what, r)
		}
	}
	checkBr := func(b int, what string) {
		if b < 0 || b >= BRMBranchRegs {
			e.failf("isa: BRM %s branch register %d out of range", what, b)
		}
	}
	switch in.Op {
	case OpNop:
	case OpSethi:
		checkReg(in.Rd, "rd")
		e.field(int32(in.Rd), 4, 22, false, "rd")
		e.field(in.Imm, 19, 3, false, "sethi imm")
	case OpBrCalc:
		checkBr(in.Rd, "brd")
		e.field(int32(in.Rd), 3, 23, false, "brd")
		if in.Rs1 < 0 { // PC-relative
			e.field(1, 1, 22, false, "pcrel")
			e.field(e.wordDisp(in.Imm), 18, 4, true, "brcalc disp")
		} else {
			checkReg(in.Rs1, "rs1")
			e.field(int32(in.Rs1), 4, 18, false, "rs1")
			e.field(in.Imm, 12, 4, true, "brcalc lo")
		}
	case OpBrLd:
		checkBr(in.Rd, "brd")
		checkReg(in.Rs1, "rs1")
		e.field(int32(in.Rd), 3, 23, false, "brd")
		e.field(int32(in.Rs1), 4, 18, false, "rs1")
		e.field(in.Imm, 12, 4, true, "brld off")
	case OpCmpBr, OpFCmpBr:
		e.field(int32(in.Cond), 4, 22, false, "cond")
		checkBr(in.BSrc, "bsrc")
		e.field(int32(in.BSrc), 3, 19, false, "bsrc")
		checkReg(in.Rs1, "rs1")
		e.field(int32(in.Rs1), 4, 15, false, "rs1")
		e.field(b2i(in.UseImm), 1, 14, false, "i")
		if in.UseImm {
			e.field(in.Imm, 11, 3, true, "cmp imm")
		} else {
			checkReg(in.Rs2, "rs2")
			e.field(int32(in.Rs2), 4, 3, false, "rs2")
		}
	case OpSet, OpFSet:
		e.field(int32(in.Cond), 4, 22, false, "cond")
		checkReg(in.Rd, "rd")
		e.field(int32(in.Rd), 4, 18, false, "rd")
		checkReg(in.Rs1, "rs1")
		e.field(int32(in.Rs1), 4, 14, false, "rs1")
		e.field(b2i(in.UseImm), 1, 13, false, "i")
		if in.UseImm {
			e.field(in.Imm, 10, 3, true, "set imm")
		} else {
			checkReg(in.Rs2, "rs2")
			e.field(int32(in.Rs2), 4, 3, false, "rs2")
		}
	case OpMovBr:
		checkBr(in.Rd, "brd")
		checkBr(in.BSrc, "bsrc")
		e.field(int32(in.Rd), 3, 23, false, "brd")
		e.field(int32(in.BSrc), 3, 20, false, "bsrc")
	case OpMovRB:
		checkReg(in.Rd, "rd")
		checkBr(in.BSrc, "bsrc")
		e.field(int32(in.Rd), 4, 22, false, "rd")
		e.field(int32(in.BSrc), 3, 19, false, "bsrc")
	case OpMovBR:
		checkBr(in.Rd, "brd")
		checkReg(in.Rs1, "rs1")
		e.field(int32(in.Rd), 3, 23, false, "brd")
		e.field(int32(in.Rs1), 4, 19, false, "rs1")
	case OpTrap:
		e.field(in.Imm, 23, 3, false, "trap code")
	default: // ALU, memory, FP
		rd := in.Rd
		if rd < 0 {
			rd = 0
		}
		checkReg(rd, "rd")
		e.field(int32(rd), 4, 22, false, "rd")
		rs1 := in.Rs1
		if rs1 < 0 {
			rs1 = 0
		}
		checkReg(rs1, "rs1")
		e.field(int32(rs1), 4, 18, false, "rs1")
		e.field(b2i(in.UseImm), 1, 17, false, "i")
		if in.UseImm {
			e.field(in.Imm, 12, 3, true, "imm")
		} else {
			rs2 := in.Rs2
			if rs2 < 0 {
				rs2 = 0
			}
			checkReg(rs2, "rs2")
			e.field(int32(rs2), 4, 3, false, "rs2")
		}
	}
}

// Decode unpacks a 32-bit word encoded for machine k. Decode is the inverse
// of Encode for every encodable instruction.
func Decode(word uint32, k Kind) (Instr, error) {
	op := Op(extract(word, 6, 26, false))
	if op >= NumOps {
		return Instr{}, fmt.Errorf("isa: bad opcode %d", op)
	}
	if k == Baseline {
		return decodeBase(word, op), nil
	}
	return decodeBRM(word, op), nil
}

func decodeBase(w uint32, op Op) Instr {
	in := Instr{Op: op, Rs1: -1, Rs2: -1}
	switch op {
	case OpNop:
	case OpB:
		in.Cond = Cond(extract(w, 4, 22, false))
		in.Imm = extract(w, 22, 0, true) * WordSize
		in.UseImm = true
	case OpCall:
		in.Imm = extract(w, 26, 0, true) * WordSize
		in.UseImm = true
	case OpJr, OpJalr:
		in.Rs1 = int(extract(w, 5, 21, false))
	case OpSethi:
		in.Rd = int(extract(w, 5, 21, false))
		in.Imm = extract(w, 21, 0, false)
		in.UseImm = true
	case OpCmp, OpFcmp:
		in.Cond = Cond(extract(w, 4, 22, false))
		in.Rs1 = int(extract(w, 5, 17, false))
		in.UseImm = extract(w, 1, 16, false) == 1
		if in.UseImm {
			in.Imm = extract(w, 15, 0, true)
		} else {
			in.Rs2 = int(extract(w, 5, 0, false))
		}
	case OpSet, OpFSet:
		in.Cond = Cond(extract(w, 4, 22, false))
		in.Rd = int(extract(w, 5, 17, false))
		in.Rs1 = int(extract(w, 5, 12, false))
		in.UseImm = extract(w, 1, 11, false) == 1
		if in.UseImm {
			in.Imm = extract(w, 11, 0, true)
		} else {
			in.Rs2 = int(extract(w, 5, 0, false))
		}
	case OpTrap:
		in.Imm = extract(w, 26, 0, false)
		in.UseImm = true
	default:
		in.Rd = int(extract(w, 5, 21, false))
		in.Rs1 = int(extract(w, 5, 16, false))
		in.UseImm = extract(w, 1, 15, false) == 1
		if in.UseImm {
			in.Imm = extract(w, 15, 0, true)
		} else {
			in.Rs2 = int(extract(w, 5, 0, false))
		}
	}
	return in
}

func decodeBRM(w uint32, op Op) Instr {
	in := Instr{Op: op, Rs1: -1, Rs2: -1}
	in.BR = int(extract(w, 3, 0, false))
	switch op {
	case OpNop:
	case OpSethi:
		in.Rd = int(extract(w, 4, 22, false))
		in.Imm = extract(w, 19, 3, false)
		in.UseImm = true
	case OpBrCalc:
		in.Rd = int(extract(w, 3, 23, false))
		if extract(w, 1, 22, false) == 1 {
			in.Rs1 = -1
			in.Imm = extract(w, 18, 4, true) * WordSize
		} else {
			in.Rs1 = int(extract(w, 4, 18, false))
			in.Imm = extract(w, 12, 4, true)
		}
		in.UseImm = true
	case OpBrLd:
		in.Rd = int(extract(w, 3, 23, false))
		in.Rs1 = int(extract(w, 4, 18, false))
		in.Imm = extract(w, 12, 4, true)
		in.UseImm = true
	case OpCmpBr, OpFCmpBr:
		in.Cond = Cond(extract(w, 4, 22, false))
		in.BSrc = int(extract(w, 3, 19, false))
		in.Rs1 = int(extract(w, 4, 15, false))
		in.UseImm = extract(w, 1, 14, false) == 1
		if in.UseImm {
			in.Imm = extract(w, 11, 3, true)
		} else {
			in.Rs2 = int(extract(w, 4, 3, false))
		}
	case OpSet, OpFSet:
		in.Cond = Cond(extract(w, 4, 22, false))
		in.Rd = int(extract(w, 4, 18, false))
		in.Rs1 = int(extract(w, 4, 14, false))
		in.UseImm = extract(w, 1, 13, false) == 1
		if in.UseImm {
			in.Imm = extract(w, 10, 3, true)
		} else {
			in.Rs2 = int(extract(w, 4, 3, false))
		}
	case OpMovBr:
		in.Rd = int(extract(w, 3, 23, false))
		in.BSrc = int(extract(w, 3, 20, false))
	case OpMovRB:
		in.Rd = int(extract(w, 4, 22, false))
		in.BSrc = int(extract(w, 3, 19, false))
	case OpMovBR:
		in.Rd = int(extract(w, 3, 23, false))
		in.Rs1 = int(extract(w, 4, 19, false))
	case OpTrap:
		in.Imm = extract(w, 23, 3, false)
		in.UseImm = true
	default:
		in.Rd = int(extract(w, 4, 22, false))
		in.Rs1 = int(extract(w, 4, 18, false))
		in.UseImm = extract(w, 1, 17, false) == 1
		if in.UseImm {
			in.Imm = extract(w, 12, 3, true)
		} else {
			in.Rs2 = int(extract(w, 4, 3, false))
		}
	}
	return in
}
