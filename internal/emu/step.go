package emu

import (
	"branchreg/internal/isa"
)

// stepBaseline executes one baseline-machine instruction, implementing
// delayed branches: the instruction after a taken branch (the delay slot)
// always executes before control reaches the target.
func (m *Machine) stepBaseline(in *isa.Inst, addr int32) error {
	advance := func() error {
		if m.pending != noPending {
			t := m.pending
			m.pending = noPending
			return m.jumpTo(t)
		}
		m.pc++
		return nil
	}

	switch in.Op {
	case isa.OpCmp:
		a, b := m.R[in.Rs1], m.rhs(in)
		m.CC = signOf(a, b)
		return advance()
	case isa.OpFcmp:
		a, b := m.F[in.Rs1], m.F[in.Rs2]
		switch {
		case a < b:
			m.CC = -1
		case a > b:
			m.CC = 1
		default:
			m.CC = 0
		}
		return advance()
	case isa.OpB:
		if in.Cond == isa.CondAlways {
			m.Stats.UncondJumps++
			m.profBranch(true)
			m.pending = m.targetIndex(addr, in.Imm)
			m.notifyTransfer(TransferUncond, true)
		} else {
			m.Stats.CondBranches++
			taken := in.Cond.HoldsInt(m.CC, 0)
			if taken {
				m.Stats.CondTaken++
				m.pending = m.targetIndex(addr, in.Imm)
			}
			m.profBranch(taken)
			m.notifyTransfer(TransferCond, taken)
		}
		m.pc++
		return nil
	case isa.OpCall:
		m.Stats.Calls++
		m.profBranch(true)
		m.R[isa.RABase] = addr + 8 // skip the delay slot
		m.pending = m.targetIndex(addr, in.Imm)
		m.notifyTransfer(TransferUncond, true)
		m.pc++
		return nil
	case isa.OpJalr:
		m.Stats.Calls++
		m.profBranch(true)
		target := m.R[in.Rs1]
		m.R[isa.RABase] = addr + 8
		m.pending = m.addrIndex(target)
		m.notifyTransfer(TransferUncond, true)
		m.pc++
		return nil
	case isa.OpJr:
		target := m.R[in.Rs1]
		m.pending = m.addrIndex(target)
		// The final return to the halt address is program exit, not a
		// dynamic transfer of the workload.
		if m.pending != -1 {
			if in.Rs1 == isa.RABase {
				m.Stats.Returns++
			} else {
				m.Stats.UncondJumps++
			}
			m.profBranch(true)
			m.notifyTransfer(TransferUncond, true)
		}
		m.pc++
		return nil
	}

	handled, err := m.exec(in)
	if err != nil {
		return err
	}
	if !handled {
		return m.trapHere(TrapIllegalInstr, "baseline cannot execute %v", in.Op)
	}
	if m.halted {
		return nil
	}
	return advance()
}

// signOf computes the baseline condition code for a ? b.
func signOf(a, b int32) int32 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// targetIndex converts a PC-relative displacement into a Text index, or the
// halt sentinel (-1).
func (m *Machine) targetIndex(addr, disp int32) int {
	return m.addrIndex(addr + disp)
}

// addrIndex converts a byte address to a Text index; the halt address maps
// to -1 and is handled by jumpTo.
func (m *Machine) addrIndex(target int32) int {
	if target == haltAddr {
		return -1
	}
	return int((target - isa.TextBase) / isa.WordSize)
}

// jumpTo transfers control to a Text index; -1 halts.
func (m *Machine) jumpTo(idx int) error {
	if idx == -1 {
		m.halted = true
		m.status = m.R[1]
		return nil
	}
	if idx < 0 || idx >= len(m.P.Text) {
		return m.trapHere(TrapPCOutOfRange, "jump out of text: index %d", idx)
	}
	if p := m.Prof; p != nil {
		p.Depart[m.pc]++
		p.Arrive[idx]++
	}
	m.pc = idx
	return nil
}

// stepBRM executes one branch-register-machine instruction. Every
// instruction carries a branch-register field: PCBr (0) means fall through;
// any other value transfers control to the address in that branch register,
// with b[7] receiving the address of the next sequential instruction (the
// return-address convention of paper §4).
func (m *Machine) stepBRM(in *isa.Inst, addr int32) error {
	now := m.Stats.Instructions
	switch in.Op {
	case isa.OpBrCalc:
		m.Stats.BrCalcs++
		var target int32
		if in.Rs1 >= 0 {
			target = m.R[in.Rs1] + in.Imm
		} else {
			target = addr + in.Imm
		}
		m.B[in.Rd] = breg{addr: target, calcTime: now, valid: true}
		m.prefetch(target)
	case isa.OpBrLd:
		m.Stats.BrCalcs++
		m.Stats.Loads++
		a := m.R[in.Rs1] + in.Imm
		v, err := m.loadWord(a)
		if err != nil {
			return err
		}
		m.B[in.Rd] = breg{addr: v, calcTime: now, valid: true}
		m.prefetch(v)
	case isa.OpCmpBr:
		taken := in.Cond.HoldsInt(m.R[in.Rs1], m.rhs(in))
		m.setCmpResult(taken, in.BSrc, now)
	case isa.OpFCmpBr:
		taken := in.Cond.HoldsFloat(m.F[in.Rs1], m.F[in.Rs2])
		m.setCmpResult(taken, in.BSrc, now)
	case isa.OpMovBr:
		m.Stats.BrMoves++
		m.B[in.Rd] = m.B[in.BSrc]
	case isa.OpMovRB:
		m.Stats.BrMoves++
		m.setR(in.Rd, m.B[in.BSrc].addr)
	case isa.OpMovBR:
		m.Stats.BrMoves++
		// Restores of spilled return addresses come through here.
		m.B[in.Rd] = breg{addr: m.R[in.Rs1], calcTime: now, isRA: true, valid: true}
		m.prefetch(m.R[in.Rs1])
	default:
		handled, err := m.exec(in)
		if err != nil {
			return err
		}
		if !handled {
			return m.trapHere(TrapIllegalInstr, "BRM cannot execute %v", in.Op)
		}
		if m.halted {
			return nil
		}
	}
	return m.brmAdvance(in, addr, now)
}

func (m *Machine) setCmpResult(taken bool, bsrc int8, now int64) {
	if taken {
		src := m.B[bsrc]
		m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
	} else {
		m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
	}
}

// brmAdvance applies the instruction's branch-register field.
func (m *Machine) brmAdvance(in *isa.Inst, addr int32, now int64) error {
	if in.BR == isa.PCBr {
		m.pc++
		return nil
	}
	b := m.B[in.BR]
	if !b.valid {
		return m.trapHere(TrapUninitBranchReg, "transfer through uninitialized b[%d]", in.BR)
	}
	switch {
	case b.viaCmp:
		m.Stats.CondBranches++
	case b.addr == seq:
		// only compares produce the sequential sentinel
	default:
		idx := m.addrIndex(b.addr)
		switch {
		case idx == -1:
			// exit to the halt address: not a workload transfer
		case m.isFuncEntry(idx):
			m.Stats.Calls++
		case b.isRA:
			m.Stats.Returns++
		default:
			m.Stats.UncondJumps++
		}
	}

	// The return-address side effect: every instruction referencing a
	// branch register other than the PC stores the next sequential address
	// into b[7].
	ret := breg{addr: addr + isa.WordSize, calcTime: now, isRA: true, valid: true}

	if b.addr == seq {
		// Untaken conditional: fall through.
		m.profBranch(false)
		m.B[isa.RABr] = ret
		if m.Hooks.Transfer != nil {
			m.Hooks.Transfer(TransferCond, false, now-b.calcTime)
		}
		m.pc++
		return nil
	}
	m.Stats.CondTaken += b2i(b.viaCmp)
	// Prefetch-distance accounting for the taken transfer (the final exit
	// transfer is not part of the workload).
	if m.addrIndex(b.addr) != -1 {
		dist := now - b.calcTime
		if dist > DistHistMax {
			m.Stats.DistHist[DistHistMax]++
		} else if dist >= 0 {
			m.Stats.DistHist[dist]++
		}
		if dist >= MinPrefetchDist {
			m.Stats.PrefetchHit++
		} else {
			m.Stats.PrefetchMiss++
		}
		m.profBranch(true)
		if p := m.Prof; p != nil && dist >= 0 && dist < MinPrefetchDist {
			p.Penalty[m.pc] += MinPrefetchDist - dist
		}
		if m.Hooks.Transfer != nil {
			kind := TransferUncond
			if b.viaCmp {
				kind = TransferCond
			}
			m.Hooks.Transfer(kind, true, dist)
		}
	}
	m.B[isa.RABr] = ret
	return m.jumpTo(m.addrIndex(b.addr))
}

// notifyTransfer reports a baseline transfer event (no prefetch distance).
func (m *Machine) notifyTransfer(kind TransferKind, taken bool) {
	if m.Hooks.Transfer != nil {
		m.Hooks.Transfer(kind, taken, -1)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// prefetch notifies the cache hook of a branch-target prefetch.
func (m *Machine) prefetch(addr int32) {
	if m.Hooks.Prefetch != nil && addr != haltAddr {
		m.Hooks.Prefetch(addr)
	}
}
