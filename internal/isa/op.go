package isa

import "fmt"

// Op enumerates the operations of both machines. The two instruction sets
// share their ALU, memory and floating-point operations; the control-flow
// operations differ (paper §7): the baseline machine has branch, call and
// indirect-jump instructions while the BRM has compare-with-assignment,
// branch-target-address calculation, and branch-register moves, with the
// transfer of control itself carried by the BR field of any instruction.
type Op uint8

const (
	OpNop Op = iota

	// Integer ALU, three-address: rd = rs1 op (rs2|imm).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra

	// OpSethi loads the high 20 bits of a constant: rd = imm << 12.
	OpSethi

	// Memory. Address is rs1 + (rs2|imm).
	OpLw // rd = M[addr] (word)
	OpLb // rd = B[addr] (signed byte)
	OpSw // M[addr] = rd
	OpSb // B[addr] = rd (low byte)
	OpLf // f[rd] = F[addr] (float, one word slot; value model is float64)
	OpSf // F[addr] = f[rd]

	// Floating point, three-address on the FP file.
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFneg  // f[rd] = -f[rs1]
	OpFmov  // f[rd] = f[rs1]
	OpCvtif // f[rd] = (float) r[rs1]
	OpCvtfi // r[rd] = (int) f[rs1] (truncating)

	// OpTrap is the supervisor call used for I/O on both machines; Imm
	// selects the service (see Trap*).
	OpTrap

	// OpSet materializes a comparison (MIPS-style slt family):
	//   rd = (r[rs1] Cond rhs) ? 1 : 0
	OpSet
	// OpFSet is OpSet over FP sources: rd = (f[rs1] Cond f[rs2]) ? 1 : 0.
	OpFSet

	// ---- Baseline-only control flow ----

	// OpCmp sets the condition code from r[rs1] ? (rs2|imm).
	OpCmp
	// OpFcmp sets the condition code from f[rs1] ? f[rs2].
	OpFcmp
	// OpB branches to Target when Cond holds for the condition code
	// (CondAlways = unconditional). Delayed: the following instruction
	// (the delay slot) is always executed.
	OpB
	// OpCall calls Target, writing the return address into r[RABase].
	// Delayed.
	OpCall
	// OpJr jumps to the address in r[rs1]. Delayed. Used for returns and
	// switch dispatch.
	OpJr
	// OpJalr calls the address in r[rs1], linking through r[RABase].
	// Delayed.
	OpJalr

	// ---- BRM-only operations ----

	// OpBrCalc computes a branch target address:
	//   b[rd] = b[0] + disp          (UseImm, Rs1 < 0; PC-relative)
	//   b[rd] = r[rs1] + lo(imm)     (Rs1 >= 0; low part after a sethi)
	// Assigning a branch register directs the instruction cache to
	// prefetch the target into instruction register i[rd] (paper §3, §8).
	OpBrCalc
	// OpBrLd loads a branch target address from memory:
	//   b[rd] = M[r[rs1] + imm]   (switch tables, function pointers).
	OpBrLd
	// OpCmpBr is the BRM conditional compare-with-assignment:
	//   b[7] = (r[rs1] Cond (rs2|imm)) -> b[BSrc] | b[0]
	// The destination b[7] and false-path source b[0] are implied by the
	// encoding (paper §4).
	OpCmpBr
	// OpFCmpBr is OpCmpBr over the FP file: f[rs1] Cond f[rs2].
	OpFCmpBr
	// OpMovBr copies branch registers: b[rd] = b[BSrc] (save/restore of
	// b[7] across bodies containing transfers).
	OpMovBr
	// OpMovRB moves a branch register into a data register: r[rd] = b[BSrc]
	// (spilling branch registers to the stack).
	OpMovRB
	// OpMovBR moves a data register into a branch register: b[rd] = r[rs1]
	// (restoring spilled branch registers).
	OpMovBR

	NumOps
)

// Trap service codes (Imm field of OpTrap).
const (
	TrapExit = iota // halt; r1 = exit status
	TrapGetc        // r1 = next input byte, or -1 at end of input
	TrapPutc        // write low byte of r1 to the output stream
	TrapPutf        // write f1 formatted %.4f to the output stream
)

var opNames = [...]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor", OpSll: "sll",
	OpSrl: "srl", OpSra: "sra", OpSethi: "sethi", OpLw: "lw", OpLb: "lb",
	OpSw: "sw", OpSb: "sb", OpLf: "lf", OpSf: "sf", OpFadd: "fadd",
	OpFsub: "fsub", OpFmul: "fmul", OpFdiv: "fdiv", OpFneg: "fneg",
	OpFmov: "fmov", OpCvtif: "cvtif", OpCvtfi: "cvtfi", OpTrap: "trap",
	OpCmp: "cmp", OpFcmp: "fcmp", OpB: "b", OpCall: "call", OpJr: "jr",
	OpJalr: "jalr", OpBrCalc: "brcalc", OpBrLd: "brld", OpCmpBr: "cmpbr",
	OpFCmpBr: "fcmpbr", OpMovBr: "movbr", OpMovRB: "movrb", OpMovBR: "movbr2",
	OpSet: "set", OpFSet: "fset",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// IsALU reports whether op is an integer ALU operation rd = rs1 op rhs.
func (op Op) IsALU() bool { return op >= OpAdd && op <= OpSra }

// IsLoad reports whether op reads data memory.
func (op Op) IsLoad() bool { return op == OpLw || op == OpLb || op == OpLf || op == OpBrLd }

// IsStore reports whether op writes data memory.
func (op Op) IsStore() bool { return op == OpSw || op == OpSb || op == OpSf }

// IsFloat reports whether op operates on the FP register file.
func (op Op) IsFloat() bool {
	switch op {
	case OpFadd, OpFsub, OpFmul, OpFdiv, OpFneg, OpFmov, OpCvtif, OpCvtfi,
		OpLf, OpSf, OpFcmp, OpFCmpBr, OpFSet:
		return true
	}
	return false
}

// IsBaselineBranch reports whether op is a baseline control-transfer
// instruction (with a delay slot).
func (op Op) IsBaselineBranch() bool {
	return op == OpB || op == OpCall || op == OpJr || op == OpJalr
}

// IsBRMOnly reports whether op exists only on the branch-register machine.
func (op Op) IsBRMOnly() bool { return op >= OpBrCalc && op <= OpMovBR }

// Instr is one machine instruction for either target. Which fields are
// meaningful depends on Op; the zero value is a nop.
//
// On the BRM every instruction additionally carries BR, the branch-register
// field: BR == 0 (the PC) means "next sequential instruction", while BR != 0
// makes this instruction a transfer of control through b[BR] (paper §3).
//
// Functions hold their instructions by value, so the one-byte fields sit
// together ahead of Imm (the size is pinned by TestInstrSize). Link
// narrows each into an Inst.
type Instr struct {
	Op     Op
	Cond   Cond // OpCmp/OpFcmp/OpB/OpCmpBr/OpFCmpBr
	UseImm bool // the encodings' i bit
	// Lo marks the low-part half of a split address materialization.
	Lo   bool
	Imm  int32 // immediate / displacement (when UseImm)
	Rd   int   // destination register (data, FP or branch file by Op)
	Rs1  int   // first source (or < 0 when unused)
	Rs2  int   // second source register (when !UseImm)
	BR   int   // BRM next-instruction branch register field
	BSrc int   // BRM source branch register (OpCmpBr taken path, moves)

	// Target carries a symbolic code label for OpB/OpCall/OpBrCalc until
	// the assembler resolves it into Imm. DataTarget likewise names a data
	// symbol whose address is materialized by sethi/lo pairs.
	Target     string
	DataTarget string

	Comment string
}

// IsTransfer reports whether the instruction transfers control on machine
// kind k (baseline: branch ops; BRM: BR field != 0).
func (in *Instr) IsTransfer(k Kind) bool {
	if k == Baseline {
		return in.Op.IsBaselineBranch()
	}
	return in.BR != PCBr
}

// ReadsCC reports whether the instruction consumes the baseline condition
// code.
func (in *Instr) ReadsCC() bool { return in.Op == OpB && in.Cond != CondAlways }

// SetsCC reports whether the instruction writes the baseline condition code.
func (in *Instr) SetsCC() bool { return in.Op == OpCmp || in.Op == OpFcmp }
