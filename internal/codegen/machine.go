// Package codegen holds the machinery shared by the two code generators:
// machine descriptions, the linear-scan register allocator, stack-frame
// layout, and the lowering of machine-independent IR operations to
// instructions. The baseline machine's full code generator (including
// delayed-branch slot filling) also lives here; the branch-register
// machine's code generator — the paper's contribution — lives in
// internal/core and builds on this package.
package codegen

import "branchreg/internal/isa"

// Machine describes the register conventions of one target.
type Machine struct {
	Kind isa.Kind

	NumIntRegs   int
	NumFloatRegs int

	ZeroReg int // hardwired zero
	SPReg   int // stack pointer
	TmpReg  int // scratch for spills / address materialization
	Tmp2Reg int // second scratch
	RAReg   int // baseline: link register written by call (-1 on BRM)

	RetReg  int // integer return value / first argument
	Arg0    int
	NumArgs int

	FRetReg  int
	FArg0    int
	FNumArgs int
	FTmpReg  int
	FTmp2Reg int

	// Allocatable pools, caller-saved first preference for call-free
	// intervals, callee-saved for intervals crossing calls.
	CallerInt   []int
	CalleeInt   []int
	CallerFloat []int
	CalleeFloat []int

	ALUImmBits uint // signed immediate width of ALU/memory instructions
	CmpImmBits uint // signed immediate width of compares
	SetImmBits uint // signed immediate width of set (slt-family) instructions
}

// BaselineMachine returns the register model of the paper's baseline RISC:
// 32 data registers, 32 FP registers, delayed branches (paper §7).
func BaselineMachine() Machine {
	return Machine{
		Kind:         isa.Baseline,
		NumIntRegs:   isa.BaselineDataRegs,
		NumFloatRegs: isa.BaselineFloatRegs,
		ZeroReg:      isa.ZeroReg,
		SPReg:        30,
		TmpReg:       31,
		Tmp2Reg:      13,
		RAReg:        isa.RABase, // r12
		RetReg:       1,
		Arg0:         1,
		NumArgs:      isa.BaseNumArgs, // r1..r6
		FRetReg:      1,
		FArg0:        1,
		FNumArgs:     4, // f1..f4
		FTmpReg:      0,
		FTmp2Reg:     15,
		CallerInt:    []int{7, 8, 9, 10, 11},
		CalleeInt:    rangeInts(14, 29),
		CallerFloat:  []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14},
		CalleeFloat:  rangeInts(16, 31),
		ALUImmBits:   isa.ALUImmBits(isa.Baseline),
		CmpImmBits:   isa.CmpImmBits(isa.Baseline),
		SetImmBits:   11,
	}
}

// BRMMachine returns the register model of the branch-register machine:
// only 16 data registers and 16 FP registers, the other 16 encodings'
// worth of state spent on branch and instruction registers (paper §7).
func BRMMachine() Machine {
	return Machine{
		Kind:         isa.BranchReg,
		NumIntRegs:   isa.BRMDataRegs,
		NumFloatRegs: isa.BRMFloatRegs,
		ZeroReg:      isa.ZeroReg,
		SPReg:        isa.BRMSPReg,  // r14
		TmpReg:       isa.BRMTmpReg, // r15
		Tmp2Reg:      13,
		RAReg:        -1,
		RetReg:       1,
		Arg0:         1,
		NumArgs:      isa.BRMNumArgs, // r1..r4
		FRetReg:      1,
		FArg0:        1,
		FNumArgs:     3, // f1..f3
		FTmpReg:      0,
		FTmp2Reg:     7,
		CallerInt:    []int{5},
		CalleeInt:    rangeInts(6, 12),
		CallerFloat:  []int{4, 5, 6},
		CalleeFloat:  rangeInts(8, 15),
		ALUImmBits:   isa.ALUImmBits(isa.BranchReg),
		CmpImmBits:   isa.CmpImmBits(isa.BranchReg),
		SetImmBits:   10,
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// CalleeSavedInt reports whether r must be preserved across calls.
func (m *Machine) CalleeSavedInt(r int) bool {
	if m.Kind == isa.Baseline {
		return isa.CalleeSavedBase(r)
	}
	return isa.CalleeSavedBRM(r)
}

// CalleeSavedFloat reports whether f must be preserved across calls.
func (m *Machine) CalleeSavedFloat(f int) bool {
	if m.Kind == isa.Baseline {
		return isa.CalleeSavedFloatBase(f)
	}
	return isa.CalleeSavedFloatBRM(f)
}

// FitsALUImm reports whether v fits this machine's ALU immediate field.
func (m *Machine) FitsALUImm(v int64) bool {
	return v >= -(1<<(m.ALUImmBits-1)) && v < 1<<(m.ALUImmBits-1)
}

// FitsCmpImm reports whether v fits this machine's compare immediate field.
func (m *Machine) FitsCmpImm(v int64) bool {
	return v >= -(1<<(m.CmpImmBits-1)) && v < 1<<(m.CmpImmBits-1)
}
