// Code generated by branchreg/internal/emu/gen. DO NOT EDIT.

package emu

// The block-fused execution engine (LoopFused): basic blocks are executed
// straight-line with one up-front step-budget check amortized over the
// block, and chained through pre-linked successor block indices — no
// per-instruction bounds test, budget test, or PC-to-index lookup. Blocks
// the engine cannot run exactly (irregular delay slots, a step budget
// within reach, transfers landing inside a block) are delegated to the
// per-instruction fast loop, which reproduces the instrumented engine's
// accounting to the byte. See blockdecode.go for the block construction
// rules and DESIGN §10 for the design.
//
// A block's terminator executes its op at one site per machine. On the
// baseline a switch on the terminator kind arms the transfer (its
// counts, the target the delay slot sees as m.pending, and the
// successor); then the one delay-slot switch and the one successor step
// run. On the BRM a fused companion (cmpbr or brcalc) retires first, then
// the one transfer-op switch, then a switch on the terminator kind
// applies the transfer before the same successor step.

import (
	"context"
	"encoding/binary"

	"branchreg/internal/isa"
)

// runFusedBaseline executes the baseline machine over the block-fused form.
func runFusedBaseline(m *Machine, ctx context.Context) (int32, error) {
	fp := m.fp
	if m.halted {
		return m.status, nil
	}
	bi := int32(-1)
	if m.pc >= 0 && m.pc < len(fp.pc2block) {
		bi = fp.pc2block[m.pc]
	}
	if bi < 0 || m.pending != noPending {
		// Not at a block boundary (a resumed or hand-positioned machine):
		// the whole run belongs to the per-instruction loop.
		m.Fusion.Bails++
		return m.runFastBaseline(ctx)
	}
	ops := fp.ops
	blocks := fp.blocks
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	n := len(fp.dec)

	for {
		b := &blocks[bi]
		if insts+int64(b.cost) > limit || b.term == ftBail {
			// The step budget could expire inside this block, or the
			// block is irregular: fall back to per-instruction
			// accounting for the rest of the run.
			m.pc = int(b.start)
			st.Instructions = insts
			m.Fusion.Bails++
			return m.runFastBaseline(ctx)
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc = int(b.start)
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
		m.Fusion.Blocks++

		body := ops[b.off : b.off+b.n]
		for i := range body {
			u := &body[i]
			insts++
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
					return 0, m.fastTrap(int(u.pc), insts, TrapArithmetic, "division by zero")
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
					return 0, m.fastTrap(int(u.pc), insts, TrapArithmetic, "modulo by zero")
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
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
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
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
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
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "store out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
				}
				binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
			case uSbImm, uSbReg:
				st.Stores++
				a := R[u.rs1] + u.imm
				if u.kind == uSbReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a) >= len(mem) {
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
				}
				mem[a] = byte(R[u.rd])
			case uLfImm, uLfReg:
				st.Loads++
				a := R[u.rs1] + u.imm
				if u.kind == uLfReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a)+8 > len(mem) {
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
				}
				F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
			case uSfImm, uSfReg:
				st.Stores++
				a := R[u.rs1] + u.imm
				if u.kind == uSfReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a)+8 > len(mem) {
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "float store out of range: %#x", uint32(a))
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
				return 0, m.fastTrap(int(u.pc), insts, TrapIllegalInstr, "unknown trap %d", u.imm)

			case uCmpImm, uCmpReg:
				b := u.imm
				if u.kind == uCmpReg {
					b = R[u.rs2]
				}
				m.CC = signOf(R[u.rs1], b)
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

			case fConstAddi:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				m.Fusion.Fused += 1
			case fSlliAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				m.Fusion.Fused += 1
			case fAddiAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				m.Fusion.Fused += 1
			case fAddLwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fAddiSlli:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] << (uint32(u.imm2) & 31)
				}
				m.Fusion.Fused += 1
			case fAddAddi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				m.Fusion.Fused += 1
			case fAddSlli:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] << (uint32(u.imm2) & 31)
				}
				m.Fusion.Fused += 1
			case fAddiSbi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd2])
				}
				m.Fusion.Fused += 1
			case fLwiCmpi:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				m.CC = signOf(R[u.rs21], u.imm2)
				m.Fusion.Fused += 1
			case fLwiCmp:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				m.CC = signOf(R[u.rs21], R[u.rs22])
				m.Fusion.Fused += 1
			case fAddLfi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+8 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
					}
					F[u.rd2] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
				}
				m.Fusion.Fused += 1
			case fSbiAdd:
				st.Stores++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd])
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				m.Fusion.Fused += 1
			case fSbiAddi:
				st.Stores++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd])
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				m.Fusion.Fused += 1
			case fFmulFadd:
				F[u.rd] = F[u.rs1] * F[u.rs2]
				insts++
				F[u.rd2] = F[u.rs21] + F[u.rs22]
				m.Fusion.Fused += 1
			case fLfiConst:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+8 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
					}
					F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = u.imm2
				}
				m.Fusion.Fused += 1
			case fLbiCmpi:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(int8(mem[a]))
					}
				}
				insts++
				m.CC = signOf(R[u.rs21], u.imm2)
				m.Fusion.Fused += 1
			case fAddLbi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(int8(mem[a]))
					}
				}
				m.Fusion.Fused += 1
			case fAddiOri:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] | u.imm2
				}
				m.Fusion.Fused += 1
			case fAddOri:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] | u.imm2
				}
				m.Fusion.Fused += 1
			case fConstLwi:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fLwiAddi:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				m.Fusion.Fused += 1
			case fLwiAdd:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				m.Fusion.Fused += 1
			case fLwiLwi:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fAddiSwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd2]))
				}
				m.Fusion.Fused += 1
			case fAddSwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd2]))
				}
				m.Fusion.Fused += 1
			case fSwiSwi:
				st.Stores++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd2]))
				}
				m.Fusion.Fused += 1
			case fSwiLwi:
				st.Stores++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fAddiLwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fConstAddiAdd:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + R[u.rs32]
				}
				m.Fusion.Fused += 2
			case fSlliAddLwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs31] + u.imm3
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd3 != 0 {
						R[u.rd3] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 2
			case fAddiSlliAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] << (uint32(u.imm2) & 31)
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + R[u.rs32]
				}
				m.Fusion.Fused += 2
			case fConstAddiSlli:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] << (uint32(u.imm3) & 31)
				}
				m.Fusion.Fused += 2
			case fAddSlliAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] << (uint32(u.imm2) & 31)
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + R[u.rs32]
				}
				m.Fusion.Fused += 2
			case fAddiAddAddi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + u.imm3
				}
				m.Fusion.Fused += 2
			case fAddAddiSbi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				insts++
				st.Stores++
				{
					a := R[u.rs31] + u.imm3
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd3])
				}
				m.Fusion.Fused += 2
			case fAddLwiCmpi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				m.CC = signOf(R[u.rs31], u.imm3)
				m.Fusion.Fused += 2
			case fSlliAddSlli:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] << (uint32(u.imm3) & 31)
				}
				m.Fusion.Fused += 2
			case fAddiAddLfi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs31] + u.imm3
					if a < 0 || int(a)+8 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
					}
					F[u.rd3] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
				}
				m.Fusion.Fused += 2
			case fAddiSbiAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd2])
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + R[u.rs32]
				}
				m.Fusion.Fused += 2
			case fAddiSbiAddi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd2])
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + u.imm3
				}
				m.Fusion.Fused += 2
			case fAddiAddLbi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs31] + u.imm3
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
					}
					if u.rd3 != 0 {
						R[u.rd3] = int32(int8(mem[a]))
					}
				}
				m.Fusion.Fused += 2
			case fAddLbiCmpi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(int8(mem[a]))
					}
				}
				insts++
				m.CC = signOf(R[u.rs31], u.imm3)
				m.Fusion.Fused += 2

			default: // uIllegal and any BRM-only op
				return 0, m.fastTrap(int(u.pc), insts, TrapIllegalInstr, "baseline cannot execute %v", isa.Op(u.imm))

			}
		}

		if b.term <= ftExit {
			if b.term == ftExit {
				insts++
				m.halted = true
				m.status = R[1]
				m.pc = int(b.termPC)
				st.Instructions = insts
				return m.status, nil
			}
			bi = b.fall
			if bi < 0 {
				if bi == succTrap {
					return 0, m.fastTrap(int(b.fallIdx), insts, TrapPCOutOfRange,
						"pc index %d outside text [0,%d)", int(b.fallIdx), n)
				}
				m.pc = int(b.fallIdx)
				st.Instructions = insts
				m.Fusion.Bails++
				return m.runFastBaseline(ctx)
			}
			continue
		}

		// A delayed transfer. Arm it: its counts, the target index the
		// delay slot sees as m.pending, and the successor (a block index
		// or a succ* sentinel; jr and jalr resolve theirs here, before the
		// slot, which is exact because pc2block and the text are static).
		insts++
		pend := int(b.tgt)
		next := b.taken
		untaken := false
		switch b.term {
		case ftJump:
			st.UncondJumps++
		case ftCall:
			st.Calls++
			R[isa.RABase] = b.tob.imm
		case ftJalr:
			st.Calls++
			target := R[b.tob.rs1]
			R[isa.RABase] = b.tob.imm
			pend = addrToIndex(target)
			next = succ(fp.pc2block, pend)
		case ftJr:
			pend = addrToIndex(R[b.tob.rs1])
			if pend != -1 {
				if b.tob.kind == uJrRet {
					st.Returns++
				} else {
					st.UncondJumps++
				}
			}
			next = succ(fp.pc2block, pend)
		default: // ftBCond, ftCmpBCond
			if b.term == ftCmpBCond {
				insts++
				u := &b.cob
				switch u.kind {
				case uCmpImm:
					m.CC = signOf(R[u.rs1], u.imm)
				case uCmpReg:
					m.CC = signOf(R[u.rs1], R[u.rs2])
				default: // uFcmp
					a, c := F[u.rs1], F[u.rs2]
					switch {
					case a < c:
						m.CC = -1
					case a > c:
						m.CC = 1
					default:
						m.CC = 0
					}
				}
				m.Fusion.Fused++
			}
			st.CondBranches++
			if isa.Cond(b.tob.cond).HoldsInt(m.CC, 0) {
				st.CondTaken++
			} else {
				pend, next, untaken = noPending, b.fall, true
			}
		}

		// The delay slot, with the transfer armed. An unfilled slot (a
		// nop) is the common case and skips the dispatch.
		insts++
		if u := &b.dob; u.kind == uNop {
			st.Noops++
		} else {
			dpc := int(b.dpc)
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
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapArithmetic, "division by zero")
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
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapArithmetic, "modulo by zero")
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
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
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
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
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
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
				}
				binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
			case uSbImm, uSbReg:
				st.Stores++
				a := R[u.rs1] + u.imm
				if u.kind == uSbReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a) >= len(mem) {
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
				}
				mem[a] = byte(R[u.rd])
			case uLfImm, uLfReg:
				st.Loads++
				a := R[u.rs1] + u.imm
				if u.kind == uLfReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a)+8 > len(mem) {
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
				}
				F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
			case uSfImm, uSfReg:
				st.Stores++
				a := R[u.rs1] + u.imm
				if u.kind == uSfReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a)+8 > len(mem) {
					m.pending = pend
					return 0, m.fastTrap(dpc, insts, TrapOOBStore, "float store out of range: %#x", uint32(a))
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
				m.pending = pend
				return 0, m.fastTrap(dpc, insts, TrapIllegalInstr, "unknown trap %d", u.imm)

			case uCmpImm, uCmpReg:
				b := u.imm
				if u.kind == uCmpReg {
					b = R[u.rs2]
				}
				m.CC = signOf(R[u.rs1], b)
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

			default: // uIllegal and any BRM-only op
				m.pending = pend
				return 0, m.fastTrap(dpc, insts, TrapIllegalInstr, "baseline cannot execute %v", isa.Op(u.imm))

			}
		}
		bi = next
		if bi < 0 {
			if untaken {
				if bi == succTrap {
					return 0, m.fastTrap(int(b.fallIdx), insts, TrapPCOutOfRange,
						"pc index %d outside text [0,%d)", int(b.fallIdx), n)
				}
				m.pc = int(b.fallIdx)
				st.Instructions = insts
				m.Fusion.Bails++
				return m.runFastBaseline(ctx)
			}
			switch bi {
			case succHalt:
				m.halted = true
				m.status = R[1]
				m.pc = int(b.dpc)
				st.Instructions = insts
				return m.status, nil
			case succTrap:
				return 0, m.fastTrap(int(b.dpc), insts, TrapPCOutOfRange, "jump out of text: index %d", pend)
			default: // succInner
				m.pc = pend
				st.Instructions = insts
				m.Fusion.Bails++
				return m.runFastBaseline(ctx)
			}
		}
	}
}

// runFusedBRM executes the branch-register machine over the block-fused form.
func runFusedBRM(m *Machine, ctx context.Context) (int32, error) {
	fp := m.fp
	if m.halted {
		return m.status, nil
	}
	bi := int32(-1)
	if m.pc >= 0 && m.pc < len(fp.pc2block) {
		bi = fp.pc2block[m.pc]
	}
	if bi < 0 {
		m.Fusion.Bails++
		return m.runFastBRM(ctx)
	}
	ops := fp.ops
	blocks := fp.blocks
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	n := len(fp.dec)

	for {
		b := &blocks[bi]
		if insts+int64(b.cost) > limit || b.term == ftBail {
			m.pc = int(b.start)
			st.Instructions = insts
			m.Fusion.Bails++
			return m.runFastBRM(ctx)
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc = int(b.start)
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
		m.Fusion.Blocks++

		body := ops[b.off : b.off+b.n]
		for i := range body {
			u := &body[i]
			insts++
			now := insts
			_ = now
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
					return 0, m.fastTrap(int(u.pc), insts, TrapArithmetic, "division by zero")
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
					return 0, m.fastTrap(int(u.pc), insts, TrapArithmetic, "modulo by zero")
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
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
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
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
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
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "store out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
				}
				binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
			case uSbImm, uSbReg:
				st.Stores++
				a := R[u.rs1] + u.imm
				if u.kind == uSbReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a) >= len(mem) {
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
				}
				mem[a] = byte(R[u.rd])
			case uLfImm, uLfReg:
				st.Loads++
				a := R[u.rs1] + u.imm
				if u.kind == uLfReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a)+8 > len(mem) {
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
				}
				F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
			case uSfImm, uSfReg:
				st.Stores++
				a := R[u.rs1] + u.imm
				if u.kind == uSfReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a)+8 > len(mem) {
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "float store out of range: %#x", uint32(a))
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
				return 0, m.fastTrap(int(u.pc), insts, TrapIllegalInstr, "unknown trap %d", u.imm)

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
					return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
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

			case fConstAddi:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				m.Fusion.Fused += 1
			case fSlliAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				m.Fusion.Fused += 1
			case fAddiAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				m.Fusion.Fused += 1
			case fAddLwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fAddiSlli:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] << (uint32(u.imm2) & 31)
				}
				m.Fusion.Fused += 1
			case fAddAddi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				m.Fusion.Fused += 1
			case fAddSlli:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] << (uint32(u.imm2) & 31)
				}
				m.Fusion.Fused += 1
			case fAddiSbi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd2])
				}
				m.Fusion.Fused += 1
			case fLwiCmpbri:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				now = insts
				if isa.Cond(u.cond).HoldsInt(R[u.rs21], u.imm2) {
					src := m.B[u.bsrc]
					m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
				} else {
					m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
				}
				m.Fusion.Fused += 1
			case fLwiCmpbr:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				now = insts
				if isa.Cond(u.cond).HoldsInt(R[u.rs21], R[u.rs22]) {
					src := m.B[u.bsrc]
					m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
				} else {
					m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
				}
				m.Fusion.Fused += 1
			case fAddLfi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+8 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
					}
					F[u.rd2] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
				}
				m.Fusion.Fused += 1
			case fSbiAdd:
				st.Stores++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd])
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				m.Fusion.Fused += 1
			case fSbiAddi:
				st.Stores++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd])
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				m.Fusion.Fused += 1
			case fFmulFadd:
				F[u.rd] = F[u.rs1] * F[u.rs2]
				insts++
				F[u.rd2] = F[u.rs21] + F[u.rs22]
				m.Fusion.Fused += 1
			case fLfiConst:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+8 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
					}
					F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = u.imm2
				}
				m.Fusion.Fused += 1
			case fConstCmpbr:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				now = insts
				if isa.Cond(u.cond).HoldsInt(R[u.rs21], R[u.rs22]) {
					src := m.B[u.bsrc]
					m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
				} else {
					m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
				}
				m.Fusion.Fused += 1
			case fConstCmpbri:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				now = insts
				if isa.Cond(u.cond).HoldsInt(R[u.rs21], u.imm2) {
					src := m.B[u.bsrc]
					m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
				} else {
					m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
				}
				m.Fusion.Fused += 1
			case fLbiCmpbri:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(int8(mem[a]))
					}
				}
				insts++
				now = insts
				if isa.Cond(u.cond).HoldsInt(R[u.rs21], u.imm2) {
					src := m.B[u.bsrc]
					m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
				} else {
					m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
				}
				m.Fusion.Fused += 1
			case fAddLbi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(int8(mem[a]))
					}
				}
				m.Fusion.Fused += 1
			case fBrcalcAddi:
				st.BrCalcs++
				m.B[u.rd] = breg{addr: u.imm, calcTime: now, valid: true}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				m.Fusion.Fused += 1
			case fBrcalcConst:
				st.BrCalcs++
				m.B[u.rd] = breg{addr: u.imm, calcTime: now, valid: true}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = u.imm2
				}
				m.Fusion.Fused += 1
			case fAddiOri:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] | u.imm2
				}
				m.Fusion.Fused += 1
			case fAddOri:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] | u.imm2
				}
				m.Fusion.Fused += 1
			case fConstLwi:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fLwiAddi:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				m.Fusion.Fused += 1
			case fLwiAdd:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				m.Fusion.Fused += 1
			case fLwiLwi:
				st.Loads++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd != 0 {
						R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fAddiSwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd2]))
				}
				m.Fusion.Fused += 1
			case fAddSwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd2]))
				}
				m.Fusion.Fused += 1
			case fSwiSwi:
				st.Stores++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd2]))
				}
				m.Fusion.Fused += 1
			case fSwiLwi:
				st.Stores++
				{
					a := R[u.rs1] + u.imm
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc), insts, TrapOOBStore, "store out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc), insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
					}
					binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fAddiLwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 1
			case fConstAddiAdd:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + R[u.rs32]
				}
				m.Fusion.Fused += 2
			case fSlliAddLwi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs31] + u.imm3
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd3 != 0 {
						R[u.rd3] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				m.Fusion.Fused += 2
			case fAddiSlliAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] << (uint32(u.imm2) & 31)
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + R[u.rs32]
				}
				m.Fusion.Fused += 2
			case fConstAddiSlli:
				if u.rd != 0 {
					R[u.rd] = u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] << (uint32(u.imm3) & 31)
				}
				m.Fusion.Fused += 2
			case fAddSlliAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] << (uint32(u.imm2) & 31)
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + R[u.rs32]
				}
				m.Fusion.Fused += 2
			case fAddiAddAddi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + u.imm3
				}
				m.Fusion.Fused += 2
			case fAddAddiSbi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + u.imm2
				}
				insts++
				st.Stores++
				{
					a := R[u.rs31] + u.imm3
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd3])
				}
				m.Fusion.Fused += 2
			case fAddLwiCmpbri:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a)+4 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
					}
					if a%isa.WordSize != 0 {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(binary.LittleEndian.Uint32(mem[a:]))
					}
				}
				insts++
				now = insts
				if isa.Cond(u.cond).HoldsInt(R[u.rs31], u.imm3) {
					src := m.B[u.bsrc]
					m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
				} else {
					m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
				}
				m.Fusion.Fused += 2
			case fSlliAddSlli:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] << (uint32(u.imm3) & 31)
				}
				m.Fusion.Fused += 2
			case fAddiAddLfi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs31] + u.imm3
					if a < 0 || int(a)+8 > len(mem) {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
					}
					F[u.rd3] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
				}
				m.Fusion.Fused += 2
			case fAddiSbiAdd:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd2])
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + R[u.rs32]
				}
				m.Fusion.Fused += 2
			case fAddiSbiAddi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				st.Stores++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
					}
					mem[a] = byte(R[u.rd2])
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + u.imm3
				}
				m.Fusion.Fused += 2
			case fAddiAddLbi:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + u.imm
				}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = R[u.rs21] + R[u.rs22]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs31] + u.imm3
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+2, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
					}
					if u.rd3 != 0 {
						R[u.rd3] = int32(int8(mem[a]))
					}
				}
				m.Fusion.Fused += 2
			case fAddLbiCmpbri:
				if u.rd != 0 {
					R[u.rd] = R[u.rs1] + R[u.rs2]
				}
				insts++
				st.Loads++
				{
					a := R[u.rs21] + u.imm2
					if a < 0 || int(a) >= len(mem) {
						return 0, m.fastTrap(int(u.pc)+1, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
					}
					if u.rd2 != 0 {
						R[u.rd2] = int32(int8(mem[a]))
					}
				}
				insts++
				now = insts
				if isa.Cond(u.cond).HoldsInt(R[u.rs31], u.imm3) {
					src := m.B[u.bsrc]
					m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
				} else {
					m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
				}
				m.Fusion.Fused += 2
			case fBrcalcConstAddi:
				st.BrCalcs++
				m.B[u.rd] = breg{addr: u.imm, calcTime: now, valid: true}
				insts++
				if u.rd2 != 0 {
					R[u.rd2] = u.imm2
				}
				insts++
				if u.rd3 != 0 {
					R[u.rd3] = R[u.rs31] + u.imm3
				}
				m.Fusion.Fused += 2

			default: // uIllegal and any baseline-only op
				return 0, m.fastTrap(int(u.pc), insts, TrapIllegalInstr, "BRM cannot execute %v", isa.Op(u.imm))

			}
		}

		if b.term <= ftExit {
			if b.term == ftExit {
				insts++
				m.halted = true
				m.status = R[1]
				m.pc = int(b.termPC)
				st.Instructions = insts
				return m.status, nil
			}
			bi = b.fall
			if bi < 0 {
				if bi == succTrap {
					return 0, m.fastTrap(int(b.fallIdx), insts, TrapPCOutOfRange,
						"pc index %d outside text [0,%d)", int(b.fallIdx), n)
				}
				m.pc = int(b.fallIdx)
				st.Instructions = insts
				m.Fusion.Bails++
				return m.runFastBRM(ctx)
			}
			continue
		}

		// A fused companion retires first: a compare that assigns b[7]
		// for the transfer through it (cmpbr/fcmpbr), or a static brcalc
		// of the transfer's own breg.
		cmpTaken := false
		if b.term >= ftBrmCmpBr {
			insts++
			u := &b.cob
			if b.term == ftBrmCmpBr {
				switch u.kind {
				case uCmpBrImm:
					cmpTaken = isa.Cond(u.cond).HoldsInt(R[u.rs1], u.imm)
				case uCmpBrReg:
					cmpTaken = isa.Cond(u.cond).HoldsInt(R[u.rs1], R[u.rs2])
				default: // uFCmpBr
					cmpTaken = isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2])
				}
				if !b.lite {
					// The transfer op could observe (or a trap in it could
					// expose) the intermediate b[7]; for lite blocks the
					// compare result is dead until the transfer and the
					// store is elided.
					if cmpTaken {
						src := m.B[u.bsrc]
						m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
					} else {
						m.B[isa.RABr] = breg{addr: seq, calcTime: insts, viaCmp: true, valid: true}
					}
				}
			} else {
				st.BrCalcs++
				m.B[u.rd] = breg{addr: u.imm, calcTime: insts, valid: true}
			}
			m.Fusion.Fused++
		}

		// The transfer-annotated op. A nop (no instruction could be moved
		// into the transfer) is the common case and skips the dispatch.
		insts++
		now := insts
		if u := &b.tob; u.kind == uNop {
			st.Noops++
		} else {
			tpc := int(b.termPC)
			_ = tpc
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
					return 0, m.fastTrap(tpc, insts, TrapArithmetic, "division by zero")
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
					return 0, m.fastTrap(tpc, insts, TrapArithmetic, "modulo by zero")
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
					return 0, m.fastTrap(tpc, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					return 0, m.fastTrap(tpc, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
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
					return 0, m.fastTrap(tpc, insts, TrapOOBLoad, "byte load out of range: %#x", uint32(a))
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
					return 0, m.fastTrap(tpc, insts, TrapOOBStore, "store out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					return 0, m.fastTrap(tpc, insts, TrapMisaligned, "misaligned word store: %#x", uint32(a))
				}
				binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
			case uSbImm, uSbReg:
				st.Stores++
				a := R[u.rs1] + u.imm
				if u.kind == uSbReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a) >= len(mem) {
					return 0, m.fastTrap(tpc, insts, TrapOOBStore, "byte store out of range: %#x", uint32(a))
				}
				mem[a] = byte(R[u.rd])
			case uLfImm, uLfReg:
				st.Loads++
				a := R[u.rs1] + u.imm
				if u.kind == uLfReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a)+8 > len(mem) {
					return 0, m.fastTrap(tpc, insts, TrapOOBLoad, "float load out of range: %#x", uint32(a))
				}
				F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
			case uSfImm, uSfReg:
				st.Stores++
				a := R[u.rs1] + u.imm
				if u.kind == uSfReg {
					a = R[u.rs1] + R[u.rs2]
				}
				if a < 0 || int(a)+8 > len(mem) {
					return 0, m.fastTrap(tpc, insts, TrapOOBStore, "float store out of range: %#x", uint32(a))
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
				return 0, m.fastTrap(tpc, insts, TrapIllegalInstr, "unknown trap %d", u.imm)

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
					return 0, m.fastTrap(tpc, insts, TrapOOBLoad, "load out of range: %#x", uint32(a))
				}
				if a%isa.WordSize != 0 {
					return 0, m.fastTrap(tpc, insts, TrapMisaligned, "misaligned word load: %#x", uint32(a))
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
				return 0, m.fastTrap(tpc, insts, TrapIllegalInstr, "BRM cannot execute %v", isa.Op(u.imm))

			}
		}

		// Apply the transfer: its counts and the successor. The return
		// side effect lands in b[7] after the breg is read.
		pend := int(b.tgt)
		next := b.taken
		untaken := false
		switch b.term {
		case ftBrm:
			bv := m.B[b.tob.br]
			if !bv.valid {
				return 0, m.fastTrap(int(b.termPC), insts, TrapUninitBranchReg,
					"transfer through uninitialized b[%d]", b.tob.br)
			}
			if bv.addr == seq {
				// Untaken conditional (or a movbr that copied the
				// sentinel): fall through.
				if bv.viaCmp {
					st.CondBranches++
				}
				next, untaken = b.fall, true
				break
			}
			pend = addrToIndex(bv.addr)
			switch {
			case bv.viaCmp:
				st.CondBranches++
			case pend == -1:
				// exit to the halt address: not a workload transfer
			case m.isFuncEntry(pend):
				st.Calls++
			case bv.isRA:
				st.Returns++
			default:
				st.UncondJumps++
			}
			st.CondTaken += b2i(bv.viaCmp)
			if pend != -1 {
				dist := now - bv.calcTime
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
			next = succ(fp.pc2block, pend)
		case ftBrmSJmp:
			// Transfer through a breg the block itself loaded with a
			// static target: stat class and prefetch distance were
			// resolved at decode time.
			if next != succHalt {
				if b.statK == 1 {
					st.Calls++
				} else {
					st.UncondJumps++
				}
				dist := int64(b.distK)
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
		case ftBrmSCond:
			// Transfer through a compare whose source breg the block
			// loaded statically: the breg read degenerates to a
			// taken/untaken test.
			st.CondBranches++
			if m.B[b.tob.br].addr == seq {
				next, untaken = b.fall, true
				break
			}
			st.CondTaken++
			if next != succHalt {
				dist := int64(b.distK)
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
		case ftBrmCmpBr:
			// The transfer reads b[7] as the fused compare left it. A
			// taken compare copied b[bsrc], which reads the same after
			// the op: blockdecode never fuses a companion with an op that
			// writes a branch register (writesBReg).
			st.CondBranches++
			if !cmpTaken {
				next, untaken = b.fall, true
				break
			}
			src := m.B[b.cob.bsrc]
			if src.addr == seq {
				next, untaken = b.fall, true
				break
			}
			st.CondTaken++
			pend = addrToIndex(src.addr)
			if pend != -1 {
				dist := now - src.calcTime
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
			next = succ(fp.pc2block, pend)
		default: // ftBrmCalcBr
			switch b.statK {
			case 1:
				st.Calls++
			case 2:
				st.UncondJumps++
			}
			if b.statK != 0 {
				// The target was calculated by the immediately preceding
				// instruction: the prefetch distance is always 1.
				st.DistHist[1]++
				st.PrefetchMiss++
			}
		}
		m.B[isa.RABr] = breg{addr: b.retAddr, calcTime: now, isRA: true, valid: true}
		bi = next
		if bi < 0 {
			if untaken {
				if bi == succTrap {
					return 0, m.fastTrap(int(b.fallIdx), insts, TrapPCOutOfRange,
						"pc index %d outside text [0,%d)", int(b.fallIdx), n)
				}
				m.pc = int(b.fallIdx)
				st.Instructions = insts
				m.Fusion.Bails++
				return m.runFastBRM(ctx)
			}
			switch bi {
			case succHalt:
				m.halted = true
				m.status = R[1]
				m.pc = int(b.termPC)
				st.Instructions = insts
				return m.status, nil
			case succTrap:
				return 0, m.fastTrap(int(b.termPC), insts, TrapPCOutOfRange, "jump out of text: index %d", pend)
			default: // succInner
				m.pc = pend
				st.Instructions = insts
				m.Fusion.Bails++
				return m.runFastBRM(ctx)
			}
		}
	}
}
