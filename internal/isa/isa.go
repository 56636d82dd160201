// Package isa defines the instruction-set model shared by the two machines
// evaluated in Davidson & Whalley, "Reducing the Cost of Branches by Using
// Registers" (ISCA 1990): a baseline RISC with delayed branches and a
// branch-register machine (BRM) in which every instruction names a branch
// register that supplies the address of the next instruction to execute.
//
// The package provides register conventions, opcodes, the Instr
// representation, 32-bit encodings for both machines (after the paper's
// Figures 10 and 11), an RTL pretty-printer matching the paper's notation,
// the pre-link Unit the code generators build, and Link, which turns a
// Unit into the flat Program executed by package emu.
package isa

import "fmt"

// Kind selects which of the two designed machines an instruction stream
// targets.
type Kind int

const (
	// Baseline is the paper's baseline machine: 32-bit fixed-length
	// instructions, load/store architecture, delayed branches with one
	// slot, 32 general-purpose data registers and 32 FP registers.
	Baseline Kind = iota
	// BranchReg is the branch-register machine: 16 data registers, 16 FP
	// registers, 8 branch registers with 8 corresponding instruction
	// registers, and no branch instructions — a branch-register field in
	// every instruction names the source of the next instruction address.
	BranchReg
)

func (k Kind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case BranchReg:
		return "branchreg"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Register-file sizes for the two machines (paper §7).
const (
	BaselineDataRegs  = 32
	BaselineFloatRegs = 32
	BRMDataRegs       = 16
	BRMFloatRegs      = 16
	BRMBranchRegs     = 8
)

// Fixed register roles. Both machines reserve r0 as a hardwired zero and
// r[NumRegs-2] as the stack pointer; the baseline machine links calls
// through RABase while the BRM links through branch register RABranch
// (the paper's b[7] convention, §4).
const (
	ZeroReg = 0

	// Baseline register roles.
	BaseRetReg  = 1  // function return value
	BaseArg0    = 1  // first argument register (args in r1..r6)
	BaseNumArgs = 6  // r1..r6 carry arguments
	RABase      = 12 // return address written by call
	BaseTmpReg  = 31 // assembler scratch
	BaseSPReg   = 30 // stack pointer

	// BRM register roles.
	BRMRetReg  = 1
	BRMArg0    = 1
	BRMNumArgs = 4 // r1..r4 carry arguments
	BRMTmpReg  = 15
	BRMSPReg   = 14

	// Branch registers.  b[0] is the PC; b[7] receives the address of the
	// next sequential instruction on every taken transfer, making it the
	// return-address / trash register by convention.
	PCBr = 0
	RABr = 7
)

// CalleeSavedBase reports whether baseline integer register r is preserved
// across calls. r14..r29 are callee-saved.
func CalleeSavedBase(r int) bool { return r >= 14 && r <= 29 }

// CalleeSavedBRM reports whether BRM integer register r is preserved across
// calls. r6..r12 are callee-saved.
func CalleeSavedBRM(r int) bool { return r >= 6 && r <= 12 }

// CalleeSavedFloatBase reports whether baseline FP register f is preserved
// across calls (f16..f31).
func CalleeSavedFloatBase(f int) bool { return f >= 16 && f <= 31 }

// CalleeSavedFloatBRM reports whether BRM FP register f is preserved across
// calls (f8..f15).
func CalleeSavedFloatBRM(f int) bool { return f >= 8 && f <= 15 }

// Word and layout constants.
const (
	WordSize = 4           // bytes per word / per instruction
	TextBase = 0x0000_1000 // address of the first instruction
	DataBase = 0x0010_0000 // start of the static data segment
	StackTop = 0x0040_0000 // initial stack pointer (stack grows down)
	MemBytes = 0x0040_0000 // total data memory size
)

// Cond is a comparison condition used by compares and branches.
type Cond uint8

const (
	CondNone Cond = iota
	CondEQ
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
	CondAlways
)

var condNames = [...]string{
	CondNone:   "?",
	CondEQ:     "==",
	CondNE:     "!=",
	CondLT:     "<",
	CondLE:     "<=",
	CondGT:     ">",
	CondGE:     ">=",
	CondAlways: "always",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("Cond(%d)", int(c))
}

// Negate returns the complementary condition.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondLE:
		return CondGT
	case CondGT:
		return CondLE
	case CondGE:
		return CondLT
	}
	return c
}

// HoldsInt reports whether the condition holds for the signed comparison
// a ? b.
func (c Cond) HoldsInt(a, b int32) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	case CondAlways:
		return true
	}
	return false
}

// HoldsFloat reports whether the condition holds for the comparison a ? b.
func (c Cond) HoldsFloat(a, b float64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	case CondAlways:
		return true
	}
	return false
}
