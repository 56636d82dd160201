package emu

import (
	"context"
	"encoding/binary"

	"branchreg/internal/isa"
)

// This file is the hook-free fast execution engine. It runs the predecoded
// micro-op form (see predecode.go) in a single dispatch loop per machine
// kind, with the per-step costs of the instrumented path hoisted out:
// no Step call boundary, no hook nil-checks, no fault-injection test, no
// UseImm/ZeroReg branches (resolved at decode time), and branch targets
// already in Text-index form.
//
// The fast loop is semantically identical to the instrumented loop — the
// same Stats arithmetic, the same trap kinds, messages and ordering, the
// same output bytes. TestEngines* and the native fuzz targets hold the two
// engines to byte-identical results.
//
// These loops carry no profiling code; a run with a BlockProfile attached
// executes on the instrumented loop instead, under every LoopMode,
// keeping this file's loops free of even a per-transfer branch.

// LoopMode selects which execution engine RunContext uses.
type LoopMode int

const (
	// LoopAuto picks the block-fused engine when no hooks are installed
	// and no fault plan is armed, and the instrumented loop otherwise. A
	// profiled run (Machine.Prof set) takes the instrumented loop, here
	// and under every other mode.
	LoopAuto LoopMode = iota
	// LoopFast forces the predecoded fast loop. RunContext fails if hooks
	// or a fault plan are present, since the fast loop cannot honor them.
	LoopFast
	// LoopInstrumented forces the instruction-at-a-time Step loop.
	LoopInstrumented
	// LoopFused forces the block-fused engine (fusedloop.go) over the
	// program's fused form: basic blocks chained by pre-linked successor
	// indices, adjacent micro-op pairs rewritten into superinstructions,
	// and the step budget checked once per block. Like LoopFast it cannot
	// honor hooks or fault plans.
	LoopFused
	// LoopAdaptive enters the same fused form by a rule (adaptive.go): a
	// cold program's first run starts on the fast loop and switches to
	// the form at its first context poll; every later run of the program
	// enters the form from the start. Like LoopFast it cannot honor hooks
	// or fault plans.
	LoopAdaptive
)

// hooksInstalled reports whether any observation hook is set.
func (m *Machine) hooksInstalled() bool {
	h := &m.Hooks
	return h.Fetch != nil || h.Prefetch != nil || h.Exec != nil || h.Transfer != nil
}

// fastTrap syncs the machine's program counter and instruction count, then
// builds a trap at the current instruction — so diagnostics from the fast
// loop carry exactly the context the instrumented loop would report.
func (m *Machine) fastTrap(pc int, insts int64, kind TrapKind, format string, args ...interface{}) *Trap {
	m.pc = pc
	m.Stats.Instructions = insts
	return m.trapHere(kind, format, args...)
}

// runFastBaseline executes the baseline machine over the predecoded form.
func (m *Machine) runFastBaseline(ctx context.Context) (int32, error) {
	ops := m.dec
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	pc := m.pc
	pending := m.pending

	for !m.halted {
		if pc < 0 || pc >= len(ops) {
			m.pending = pending
			st.Instructions = insts
			return 0, m.fastTrap(pc, insts, TrapPCOutOfRange,
				"pc index %d outside text [0,%d)", pc, len(ops))
		}
		u := &ops[pc]
		insts++

		seqAdv := true
		switch u.kind {
		case uNop:
			st.Noops++
		case uAddImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] + u.imm
			}
		case uAddReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] + R[u.rs2]
			}
		case uSubImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] - u.imm
			}
		case uSubReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] - R[u.rs2]
			}
		case uMulImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] * u.imm
			}
		case uMulReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] * R[u.rs2]
			}
		case uDivImm, uDivReg:
			d := u.imm
			if u.kind == uDivReg {
				d = R[u.rs2]
			}
			if d == 0 {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapArithmetic, "division by zero")
			}
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] / d
			}
		case uRemImm, uRemReg:
			d := u.imm
			if u.kind == uRemReg {
				d = R[u.rs2]
			}
			if d == 0 {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapArithmetic, "modulo by zero")
			}
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] % d
			}
		case uAndImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] & u.imm
			}
		case uAndReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] & R[u.rs2]
			}
		case uOrImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] | u.imm
			}
		case uOrReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] | R[u.rs2]
			}
		case uXorImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] ^ u.imm
			}
		case uXorReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] ^ R[u.rs2]
			}
		case uSllImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
			}
		case uSllReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] << (uint32(R[u.rs2]) & 31)
			}
		case uSrlImm:
			if u.rd != 0 {
				R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(u.imm) & 31))
			}
		case uSrlReg:
			if u.rd != 0 {
				R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(R[u.rs2]) & 31))
			}
		case uSraImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] >> (uint32(u.imm) & 31)
			}
		case uSraReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] >> (uint32(R[u.rs2]) & 31)
			}
		case uConst:
			if u.rd != 0 {
				R[u.rd] = u.imm
			}
		case uSetImm, uSetReg:
			b := u.imm
			if u.kind == uSetReg {
				b = R[u.rs2]
			}
			v := int32(0)
			if isa.Cond(u.cond).HoldsInt(R[u.rs1], b) {
				v = 1
			}
			if u.rd != 0 {
				R[u.rd] = v
			}
		case uFSet:
			v := int32(0)
			if isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2]) {
				v = 1
			}
			if u.rd != 0 {
				R[u.rd] = v
			}

		case uLwImm, uLwReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLwReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+4 > len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
			}
			if u.rd != 0 {
				R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
			}
		case uLbImm, uLbReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLbReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a) >= len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
			}
			if u.rd != 0 {
				R[u.rd] = int32(int8(mem[a]))
			}
		case uSwImm, uSwReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSwReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+4 > len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
			}
			binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
		case uSbImm, uSbReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSbReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a) >= len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
			}
			mem[a] = byte(R[u.rd])
		case uLfImm, uLfReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLfReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+8 > len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
			}
			F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
		case uSfImm, uSfReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSfReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+8 > len(mem) {
				m.pending = pending
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "float store out of range: %#x", uint32(a))
			}
			binary.LittleEndian.PutUint64(mem[a:], isa.FloatBits(F[u.rd]))

		case uFadd:
			F[u.rd] = F[u.rs1] + F[u.rs2]
		case uFsub:
			F[u.rd] = F[u.rs1] - F[u.rs2]
		case uFmul:
			F[u.rd] = F[u.rs1] * F[u.rs2]
		case uFdiv:
			F[u.rd] = F[u.rs1] / F[u.rs2]
		case uFneg:
			F[u.rd] = -F[u.rs1]
		case uFmov:
			F[u.rd] = F[u.rs1]
		case uCvtif:
			F[u.rd] = float64(R[u.rs1])
		case uCvtfi:
			if u.rd != 0 {
				R[u.rd] = int32(F[u.rs1])
			}

		case uTrapExit:
			m.halted = true
			m.status = R[1]
			seqAdv = false
		case uTrapGetc:
			if m.inPos >= len(m.input) {
				R[1] = -1
			} else {
				R[1] = int32(m.input[m.inPos])
				m.inPos++
			}
		case uTrapPutc:
			m.out.WriteByte(byte(R[1]))
		case uTrapPutf:
			m.putFloat(F[1])
		case uTrapBad:
			m.pending = pending
			return 0, m.fastTrap(pc, insts, TrapIllegalInstr, "unknown trap %d", u.imm)

		case uCmpImm, uCmpReg:
			b := u.imm
			if u.kind == uCmpReg {
				b = R[u.rs2]
			}
			m.CC = signOf(R[u.rs1], b)
			m.ccF = false
		case uFcmp:
			a, b := F[u.rs1], F[u.rs2]
			switch {
			case a < b:
				m.CC = -1
			case a > b:
				m.CC = 1
			default:
				m.CC = 0
			}
			m.ccF = true
		case uJump:
			st.UncondJumps++
			pending = int(u.tgt)
			pc++
			seqAdv = false
		case uBCond:
			st.CondBranches++
			if isa.Cond(u.cond).HoldsInt(m.CC, 0) {
				st.CondTaken++
				pending = int(u.tgt)
			}
			pc++
			seqAdv = false
		case uCall:
			st.Calls++
			R[isa.RABase] = u.imm
			pending = int(u.tgt)
			pc++
			seqAdv = false
		case uJalr:
			st.Calls++
			target := R[u.rs1]
			R[isa.RABase] = u.imm
			pending = addrToIndex(target)
			pc++
			seqAdv = false
		case uJrRet, uJrJmp:
			pending = addrToIndex(R[u.rs1])
			if pending != -1 {
				if u.kind == uJrRet {
					st.Returns++
				} else {
					st.UncondJumps++
				}
			}
			pc++
			seqAdv = false

		default: // uIllegal and any BRM-only op
			m.pending = pending
			return 0, m.fastTrap(pc, insts, TrapIllegalInstr,
				"baseline cannot execute %v", isa.Op(u.imm))
		}

		if seqAdv && !m.halted {
			if pending != -2 {
				t := pending
				pending = -2
				switch {
				case t == -1:
					m.halted = true
					m.status = R[1]
				case t < 0 || t >= len(ops):
					m.pending = pending
					return 0, m.fastTrap(pc, insts, TrapPCOutOfRange, "jump out of text: index %d", t)
				default:
					pc = t
				}
			} else {
				pc++
			}
		}

		if insts > limit {
			m.pending = pending
			t := m.fastTrap(pc, insts, TrapStepBudget, "instruction limit exceeded")
			t.Limit = limit
			t.Executed = insts
			return 0, t
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc, m.pending = pc, pending
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
	}
	m.pc, m.pending = pc, pending
	st.Instructions = insts
	return m.status, nil
}

// runFastBRM executes the branch-register machine over the predecoded form.
func (m *Machine) runFastBRM(ctx context.Context) (int32, error) {
	ops := m.dec
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	pc := m.pc

	for !m.halted {
		if pc < 0 || pc >= len(ops) {
			return 0, m.fastTrap(pc, insts, TrapPCOutOfRange,
				"pc index %d outside text [0,%d)", pc, len(ops))
		}
		u := &ops[pc]
		insts++
		now := insts

		advance := true
		switch u.kind {
		case uNop:
			st.Noops++
		case uAddImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] + u.imm
			}
		case uAddReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] + R[u.rs2]
			}
		case uSubImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] - u.imm
			}
		case uSubReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] - R[u.rs2]
			}
		case uMulImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] * u.imm
			}
		case uMulReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] * R[u.rs2]
			}
		case uDivImm, uDivReg:
			d := u.imm
			if u.kind == uDivReg {
				d = R[u.rs2]
			}
			if d == 0 {
				return 0, m.fastTrap(pc, insts, TrapArithmetic, "division by zero")
			}
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] / d
			}
		case uRemImm, uRemReg:
			d := u.imm
			if u.kind == uRemReg {
				d = R[u.rs2]
			}
			if d == 0 {
				return 0, m.fastTrap(pc, insts, TrapArithmetic, "modulo by zero")
			}
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] % d
			}
		case uAndImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] & u.imm
			}
		case uAndReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] & R[u.rs2]
			}
		case uOrImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] | u.imm
			}
		case uOrReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] | R[u.rs2]
			}
		case uXorImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] ^ u.imm
			}
		case uXorReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] ^ R[u.rs2]
			}
		case uSllImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
			}
		case uSllReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] << (uint32(R[u.rs2]) & 31)
			}
		case uSrlImm:
			if u.rd != 0 {
				R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(u.imm) & 31))
			}
		case uSrlReg:
			if u.rd != 0 {
				R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(R[u.rs2]) & 31))
			}
		case uSraImm:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] >> (uint32(u.imm) & 31)
			}
		case uSraReg:
			if u.rd != 0 {
				R[u.rd] = R[u.rs1] >> (uint32(R[u.rs2]) & 31)
			}
		case uConst:
			if u.rd != 0 {
				R[u.rd] = u.imm
			}
		case uSetImm, uSetReg:
			b := u.imm
			if u.kind == uSetReg {
				b = R[u.rs2]
			}
			v := int32(0)
			if isa.Cond(u.cond).HoldsInt(R[u.rs1], b) {
				v = 1
			}
			if u.rd != 0 {
				R[u.rd] = v
			}
		case uFSet:
			v := int32(0)
			if isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2]) {
				v = 1
			}
			if u.rd != 0 {
				R[u.rd] = v
			}

		case uLwImm, uLwReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLwReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+4 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
			}
			if u.rd != 0 {
				R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
			}
		case uLbImm, uLbReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLbReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a) >= len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
			}
			if u.rd != 0 {
				R[u.rd] = int32(int8(mem[a]))
			}
		case uSwImm, uSwReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSwReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+4 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
			}
			binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
		case uSbImm, uSbReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSbReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a) >= len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
			}
			mem[a] = byte(R[u.rd])
		case uLfImm, uLfReg:
			st.Loads++
			a := R[u.rs1] + u.imm
			if u.kind == uLfReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+8 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
			}
			F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
		case uSfImm, uSfReg:
			st.Stores++
			a := R[u.rs1] + u.imm
			if u.kind == uSfReg {
				a = R[u.rs1] + R[u.rs2]
			}
			if a < 0 || int(a)+8 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBStore, "float store out of range: %#x", uint32(a))
			}
			binary.LittleEndian.PutUint64(mem[a:], isa.FloatBits(F[u.rd]))

		case uFadd:
			F[u.rd] = F[u.rs1] + F[u.rs2]
		case uFsub:
			F[u.rd] = F[u.rs1] - F[u.rs2]
		case uFmul:
			F[u.rd] = F[u.rs1] * F[u.rs2]
		case uFdiv:
			F[u.rd] = F[u.rs1] / F[u.rs2]
		case uFneg:
			F[u.rd] = -F[u.rs1]
		case uFmov:
			F[u.rd] = F[u.rs1]
		case uCvtif:
			F[u.rd] = float64(R[u.rs1])
		case uCvtfi:
			if u.rd != 0 {
				R[u.rd] = int32(F[u.rs1])
			}

		case uTrapExit:
			m.halted = true
			m.status = R[1]
			advance = false
		case uTrapGetc:
			if m.inPos >= len(m.input) {
				R[1] = -1
			} else {
				R[1] = int32(m.input[m.inPos])
				m.inPos++
			}
		case uTrapPutc:
			m.out.WriteByte(byte(R[1]))
		case uTrapPutf:
			m.putFloat(F[1])
		case uTrapBad:
			return 0, m.fastTrap(pc, insts, TrapIllegalInstr, "unknown trap %d", u.imm)

		case uBrCalcAbs:
			st.BrCalcs++
			m.B[u.rd] = breg{addr: u.imm, calcTime: now, valid: true}
		case uBrCalcReg:
			st.BrCalcs++
			m.B[u.rd] = breg{addr: R[u.rs1] + u.imm, calcTime: now, valid: true}
		case uBrLd:
			st.BrCalcs++
			st.Loads++
			a := R[u.rs1] + u.imm
			if a < 0 || int(a)+4 > len(mem) {
				return 0, m.fastTrap(pc, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
			}
			if a%isa.WordSize != 0 {
				return 0, m.fastTrap(pc, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
			}
			v := int32(binary.LittleEndian.Uint32(mem[a:]))
			m.B[u.rd] = breg{addr: v, calcTime: now, valid: true}
		case uCmpBrImm, uCmpBrReg:
			b := u.imm
			if u.kind == uCmpBrReg {
				b = R[u.rs2]
			}
			if isa.Cond(u.cond).HoldsInt(R[u.rs1], b) {
				src := m.B[u.bsrc]
				m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
			} else {
				m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
			}
		case uFCmpBr:
			if isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2]) {
				src := m.B[u.bsrc]
				m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
			} else {
				m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
			}
		case uMovBr:
			st.BrMoves++
			m.B[u.rd] = m.B[u.bsrc]
		case uMovRB:
			st.BrMoves++
			if u.rd != 0 {
				R[u.rd] = m.B[u.bsrc].addr
			}
		case uMovBR:
			st.BrMoves++
			m.B[u.rd] = breg{addr: R[u.rs1], calcTime: now, isRA: true, valid: true}

		default: // uIllegal and any baseline-only op
			return 0, m.fastTrap(pc, insts, TrapIllegalInstr,
				"BRM cannot execute %v", isa.Op(u.imm))
		}

		if advance && !m.halted {
			if u.br == isa.PCBr {
				pc++
			} else {
				b := m.B[u.br]
				if !b.valid {
					return 0, m.fastTrap(pc, insts, TrapUninitBranchReg,
						"transfer through uninitialized b[%d]", u.br)
				}
				switch {
				case b.viaCmp:
					st.CondBranches++
				case b.addr == seq:
					// only compares produce the sequential sentinel
				default:
					idx := addrToIndex(b.addr)
					switch {
					case idx == -1:
						// exit to the halt address: not a workload transfer
					case m.isFuncEntry(idx):
						st.Calls++
					case b.isRA:
						st.Returns++
					default:
						st.UncondJumps++
					}
				}
				ret := breg{addr: isa.IndexToAddr(pc) + isa.WordSize, calcTime: now, isRA: true, valid: true}
				if b.addr == seq {
					// Untaken conditional: fall through.
					m.B[isa.RABr] = ret
					pc++
				} else {
					st.CondTaken += b2i(b.viaCmp)
					idx := addrToIndex(b.addr)
					if idx != -1 {
						dist := now - b.calcTime
						if dist > DistHistMax {
							st.DistHist[DistHistMax]++
						} else if dist >= 0 {
							st.DistHist[dist]++
						}
						if dist >= MinPrefetchDist {
							st.PrefetchHit++
						} else {
							st.PrefetchMiss++
						}
					}
					m.B[isa.RABr] = ret
					switch {
					case idx == -1:
						m.halted = true
						m.status = R[1]
					case idx < 0 || idx >= len(ops):
						return 0, m.fastTrap(pc, insts, TrapPCOutOfRange, "jump out of text: index %d", idx)
					default:
						pc = idx
					}
				}
			}
		}

		if insts > limit {
			t := m.fastTrap(pc, insts, TrapStepBudget, "instruction limit exceeded")
			t.Limit = limit
			t.Executed = insts
			return 0, t
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc = pc
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
	}
	m.pc = pc
	st.Instructions = insts
	return m.status, nil
}
