// Package emu executes linked programs for both designed machines at
// instruction level, collecting the dynamic measurements the paper's ease
// environment gathered: instruction counts, data-memory references,
// transfers of control by kind, noops, branch-target-address calculations,
// branch-register save/restore traffic, and prefetch distances (paper §7).
package emu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"branchreg/internal/isa"
)

// DistHistMax caps the prefetch-distance histogram; distances at or above
// the cap land in the last bucket.
const DistHistMax = 8

// Stats are the dynamic counts of one run.
type Stats struct {
	Instructions int64
	Loads        int64
	Stores       int64

	Noops int64

	// Baseline transfer kinds (executed branch instructions, taken or not).
	UncondJumps  int64 // unconditional branches + indirect jumps (not calls/returns)
	CondBranches int64
	CondTaken    int64
	Calls        int64
	Returns      int64

	// BRM-specific.
	BrCalcs      int64 // executed brcalc/brld instructions
	BrMoves      int64 // executed movbr/movrb/movbr2 (BR save/restore traffic)
	PrefetchHit  int64 // taken transfers whose target calc was >= MinPrefetchDist earlier
	PrefetchMiss int64 // taken transfers with a late target calc (pipeline delay)
	DistHist     [DistHistMax + 1]int64
}

// DataRefs returns total data-memory references.
func (s *Stats) DataRefs() int64 { return s.Loads + s.Stores }

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.Instructions += other.Instructions
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.Noops += other.Noops
	s.UncondJumps += other.UncondJumps
	s.CondBranches += other.CondBranches
	s.CondTaken += other.CondTaken
	s.Calls += other.Calls
	s.Returns += other.Returns
	s.BrCalcs += other.BrCalcs
	s.BrMoves += other.BrMoves
	s.PrefetchHit += other.PrefetchHit
	s.PrefetchMiss += other.PrefetchMiss
	for i := range s.DistHist {
		s.DistHist[i] += other.DistHist[i]
	}
}

// Transfers returns the total executed transfers of control.
func (s *Stats) Transfers() int64 {
	return s.UncondJumps + s.CondBranches + s.Calls + s.Returns
}

// MinPrefetchDist is the number of instructions that must separate a branch
// target address calculation from its transfer to hide the cache access
// (paper Figure 9).
const MinPrefetchDist = 2

// TransferKind classifies a dynamic transfer event for the pipeline
// simulator.
type TransferKind int

const (
	TransferUncond TransferKind = iota // jumps, calls, returns, dispatch
	TransferCond                       // conditional branches (taken or not)
)

// Hooks observe the run for the cache and pipeline studies.
type Hooks struct {
	// Fetch is called with the byte address of every executed instruction.
	Fetch func(addr int32)
	// Prefetch is called when a branch-register assignment directs the
	// instruction cache to prefetch the line containing addr (paper §8).
	Prefetch func(addr int32)
	// Exec is called after each instruction with its Text index.
	Exec func(idx int)
	// Transfer is called for every executed transfer of control. taken
	// reports whether control left the sequential path; dist is the
	// BRM's calc-to-transfer distance in instructions (-1 on the baseline
	// machine, where targets are never prefetched).
	Transfer func(kind TransferKind, taken bool, dist int64)
}

// seq is the branch-register sentinel meaning "fall through" (the untaken
// path of a compare-with-assignment).
const seq = int32(-1)

// breg is one branch register. Kept to 16 bytes (addr is an int32 byte
// address — the machine's whole address space is int32) so the B file
// fits two cache lines; the b[7] return-address store on every BRM
// transfer is the hottest write in the fused engine.
type breg struct {
	addr     int32 // target byte address or seq
	viaCmp   bool  // written by a compare (the referencing transfer is conditional)
	isRA     bool  // holds a return address (the b[7] side effect or a restore)
	valid    bool  // some instruction assigned this register
	calcTime int64 // Stats.Instructions value when the prefetch was issued
}

// Machine is an emulator instance.
type Machine struct {
	P     *isa.Program
	Stats Stats
	Hooks Hooks

	R  [32]int32
	F  [32]float64
	B  [8]breg
	CC int32 // baseline condition code: sign of (a - b), with 0 = equal

	Mem   []byte
	input []byte
	inPos int
	out   strings.Builder

	halted bool
	status int32

	pc      int // Text index
	pending int // delayed-branch target index, noPending when none (baseline)

	funcEntry []bool // Text indices that begin functions, len == len(P.Text)

	faults *faultState // deterministic fault-injection state (nil = none)

	dec     []uop  // predecoded form, built lazily by RunContext
	fp      *fprog // the program's fused form, once a run enters it
	scratch []byte // putf formatting buffer

	// Fusion counts the fused engine's dynamic behavior (blocks entered,
	// superinstruction pairs retired, hand-offs to the fast loop). It is
	// deliberately not part of Stats: Stats must stay identical across
	// engine tiers, while Fusion exists to describe the tier itself.
	Fusion FusionStats

	// Prof, when set, accumulates flow counts at transfers of control
	// (see BlockProfile). A profiled run executes on the instrumented
	// loop whatever the LoopMode.
	Prof        *BlockProfile
	profEntered bool   // Arrive[entry] already charged for this machine
	engine      string // engine used by the last RunContext (see Engine)

	MaxInstructions int64

	// Loop selects the execution engine; the zero value (LoopAuto) uses the
	// block-fused loop whenever no hooks are installed and no fault plan
	// is armed.
	Loop LoopMode

	// Refusion describes what the adaptive tier did for the last run
	// (zero value for runs that stayed on the fast loop and for other
	// engines). Like Fusion it is not part of Stats: Stats stay
	// identical across tiers.
	Refusion RefusionStats
}

// isFuncEntry reports whether Text index idx begins a function. Transfer
// targets can be arbitrary computed addresses, so idx is range-checked.
func (m *Machine) isFuncEntry(idx int) bool {
	return idx >= 0 && idx < len(m.funcEntry) && m.funcEntry[idx]
}

// halt target: transferring to byte address 0 ends the program.
const haltAddr = 0

// noPending marks m.pending when no delayed transfer is armed. addrToIndex
// maps every int32 address into ±2^29, so no target, however computed,
// collides with it.
const noPending = math.MinInt32

// New prepares an emulator for a linked program with the given input.
func New(p *isa.Program, input string) (*Machine, error) {
	return NewWithMem(p, input, nil)
}

// NewWithMem is New with a caller-provided memory buffer (e.g. from a pool).
// mem must be zeroed and exactly isa.MemBytes long; pass nil to allocate.
func NewWithMem(p *isa.Program, input string, mem []byte) (*Machine, error) {
	if mem == nil {
		mem = make([]byte, isa.MemBytes)
	} else if len(mem) != isa.MemBytes {
		return nil, fmt.Errorf("emu: memory buffer is %d bytes, want %d", len(mem), isa.MemBytes)
	}
	m := &Machine{
		P:               p,
		Mem:             mem,
		input:           []byte(input),
		pending:         noPending,
		funcEntry:       make([]bool, len(p.Text)),
		MaxInstructions: 4_000_000_000,
	}
	copy(m.Mem[isa.DataBase:], p.DataImage)
	for _, s := range p.Syms {
		if int(s.Start) < len(m.funcEntry) {
			m.funcEntry[s.Start] = true
		}
	}
	spReg := isa.BaseSPReg
	if p.Kind == isa.BranchReg {
		spReg = isa.BRMSPReg
	}
	m.R[spReg] = isa.StackTop
	// Return address of main: the halt address.
	if p.Kind == isa.Baseline {
		m.R[isa.RABase] = haltAddr
	} else {
		m.B[isa.RABr] = breg{addr: haltAddr, calcTime: 0, valid: true}
	}
	m.pc = p.EntryPC
	return m, nil
}

// Output returns everything the program wrote.
func (m *Machine) Output() string { return m.out.String() }

// ReserveOutput pre-sizes the output buffer for a workload expected to
// write about n bytes, avoiding grow-and-copy churn on the putc hot path.
func (m *Machine) ReserveOutput(n int) {
	if n > 0 {
		m.out.Grow(n)
	}
}

// Status returns the exit status.
func (m *Machine) Status() int32 { return m.status }

// Run executes until halt, returning the exit status.
func (m *Machine) Run() (int32, error) {
	return m.RunContext(context.Background())
}

// ctxCheckStride is how many instructions run between context checks in
// RunContext: rare enough to stay off the profile, frequent enough that
// a cancelled or timed-out job stops within a few milliseconds.
const ctxCheckStride = 1 << 16

// RunContext executes until halt, returning the exit status. The context
// is polled every ctxCheckStride instructions, so a per-job timeout
// interrupts even a diverging program.
//
// The engine is chosen by m.Loop: under LoopAuto (the default) the
// block-fused loop runs whenever it can reproduce the instrumented loop
// exactly — no hooks installed and no fault plan armed — and the
// instruction-at-a-time Step loop runs otherwise. A profiled run (m.Prof
// set) executes on the Step loop under every mode and records
// EngineInstrumented: profiles are diagnostic, and flow conservation
// makes them identical on every engine.
func (m *Machine) RunContext(ctx context.Context) (int32, error) {
	hooked := m.hooksInstalled() || m.faults != nil
	var mode string
	switch m.Loop {
	case LoopFast:
		mode = "LoopFast"
	case LoopFused:
		mode = "LoopFused"
	case LoopAdaptive:
		mode = "LoopAdaptive"
	}
	if mode != "" && hooked {
		return 0, fmt.Errorf("emu: %s cannot honor hooks or fault plans", mode)
	}
	switch {
	case m.Prof != nil:
		m.engine = EngineInstrumented
	case m.Loop == LoopFast:
		m.engine = EngineFast
	case m.Loop == LoopAdaptive:
		m.engine = EngineAdaptive
	case m.Loop == LoopFused || m.Loop == LoopAuto && !hooked:
		m.engine = EngineFused
	default:
		m.engine = EngineInstrumented
	}
	if m.Prof != nil && !m.profEntered {
		m.profEntered = true
		if m.pc >= 0 && m.pc < len(m.Prof.Arrive) {
			m.Prof.Arrive[m.pc]++
		}
	}
	var status int32
	var err error
	switch m.engine {
	case EngineInstrumented:
		status, err = m.runInstrumented(ctx)
	case EngineAdaptive:
		status, err = m.runAdaptive(ctx)
	case EngineFused:
		status, err = m.runFused(ctx)
	default:
		status, err = m.runFast(ctx)
	}
	// Close the flow at the run's last instruction so Counts() conserves.
	// Only a finished run (halt or trap) closes; a context cancellation
	// may be resumed, so its exit stays open.
	if m.Prof != nil {
		var t *Trap
		if m.halted || errors.As(err, &t) {
			if m.pc >= 0 && m.pc < len(m.Prof.Depart) {
				m.Prof.Depart[m.pc]++
			}
		}
	}
	return status, err
}

// runFast runs the predecoded fast loop, predecoding on first use.
func (m *Machine) runFast(ctx context.Context) (int32, error) {
	if m.dec == nil {
		m.dec = predecode(m.P)
	}
	if m.P.Kind == isa.Baseline {
		return m.runFastBaseline(ctx)
	}
	return m.runFastBRM(ctx)
}

// runFused runs the program's fused form, building it on first use.
func (m *Machine) runFused(ctx context.Context) (int32, error) {
	if m.fp == nil {
		m.fp = fusedForm(m.P, m.dec)
		m.dec = m.fp.dec
	}
	if m.P.Kind == isa.Baseline {
		return runFusedBaseline(m, ctx)
	}
	return runFusedBRM(m, ctx)
}

// runInstrumented is the original Step-at-a-time engine, required for
// hooks (cache and pipeline studies) and fault injection.
func (m *Machine) runInstrumented(ctx context.Context) (int32, error) {
	next := m.Stats.Instructions + ctxCheckStride
	for !m.halted {
		if err := m.Step(); err != nil {
			return 0, err
		}
		if m.Stats.Instructions > m.MaxInstructions {
			t := m.trapHere(TrapStepBudget, "instruction limit exceeded")
			t.Limit = m.MaxInstructions
			t.Executed = m.Stats.Instructions
			return 0, t
		}
		if m.Stats.Instructions >= next {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			next = m.Stats.Instructions + ctxCheckStride
		}
	}
	return m.status, nil
}

func (m *Machine) where() string {
	if m.pc >= 0 && m.pc < len(m.P.Text) {
		return m.P.FuncAt(m.pc)
	}
	return "?"
}

// Step executes one instruction.
func (m *Machine) Step() error {
	if m.pc < 0 || m.pc >= len(m.P.Text) {
		return &Trap{Kind: TrapPCOutOfRange, PC: isa.IndexToAddr(m.pc), Fn: m.where(),
			Detail: fmt.Sprintf("pc index %d outside text [0,%d)", m.pc, len(m.P.Text))}
	}
	if m.faults != nil {
		if err := m.applyFaults(); err != nil {
			return err
		}
	}
	in := &m.P.Text[m.pc]
	addr := isa.IndexToAddr(m.pc)
	if m.Hooks.Fetch != nil {
		m.Hooks.Fetch(addr)
	}
	m.Stats.Instructions++
	if m.Hooks.Exec != nil {
		m.Hooks.Exec(m.pc)
	}

	var err error
	if m.P.Kind == isa.Baseline {
		err = m.stepBaseline(in, addr)
	} else {
		err = m.stepBRM(in, addr)
	}
	return err
}

// ---- shared operation execution ----

func (m *Machine) rhs(in *isa.Inst) int32 {
	if in.UseImm {
		return in.Imm
	}
	return m.R[in.Rs2]
}

func (m *Machine) setR(r int8, v int32) {
	if r != isa.ZeroReg {
		m.R[r] = v
	}
}

func (m *Machine) loadWord(addr int32) (int32, error) {
	if addr < 0 || int(addr)+4 > len(m.Mem) {
		return 0, m.trapHere(TrapOOBLoad, "load out of range: %#x", uint32(addr))
	}
	if addr%isa.WordSize != 0 {
		return 0, m.trapHere(TrapMisaligned, "misaligned word load: %#x", uint32(addr))
	}
	return int32(m.Mem[addr]) | int32(m.Mem[addr+1])<<8 |
		int32(m.Mem[addr+2])<<16 | int32(m.Mem[addr+3])<<24, nil
}

func (m *Machine) storeWord(addr, v int32) error {
	if addr < 0 || int(addr)+4 > len(m.Mem) {
		return m.trapHere(TrapOOBStore, "store out of range: %#x", uint32(addr))
	}
	if addr%isa.WordSize != 0 {
		return m.trapHere(TrapMisaligned, "misaligned word store: %#x", uint32(addr))
	}
	m.Mem[addr] = byte(v)
	m.Mem[addr+1] = byte(v >> 8)
	m.Mem[addr+2] = byte(v >> 16)
	m.Mem[addr+3] = byte(v >> 24)
	return nil
}

// exec handles every non-control-flow operation common to both machines.
// It reports whether it handled the op.
func (m *Machine) exec(in *isa.Inst) (bool, error) {
	switch in.Op {
	case isa.OpNop:
		m.Stats.Noops++
	case isa.OpAdd:
		m.setR(in.Rd, m.R[in.Rs1]+m.rhs(in))
	case isa.OpSub:
		m.setR(in.Rd, m.R[in.Rs1]-m.rhs(in))
	case isa.OpMul:
		m.setR(in.Rd, m.R[in.Rs1]*m.rhs(in))
	case isa.OpDiv:
		d := m.rhs(in)
		if d == 0 {
			return true, m.trapHere(TrapArithmetic, "division by zero")
		}
		m.setR(in.Rd, m.R[in.Rs1]/d)
	case isa.OpRem:
		d := m.rhs(in)
		if d == 0 {
			return true, m.trapHere(TrapArithmetic, "modulo by zero")
		}
		m.setR(in.Rd, m.R[in.Rs1]%d)
	case isa.OpAnd:
		m.setR(in.Rd, m.R[in.Rs1]&m.rhs(in))
	case isa.OpOr:
		m.setR(in.Rd, m.R[in.Rs1]|m.rhs(in))
	case isa.OpXor:
		m.setR(in.Rd, m.R[in.Rs1]^m.rhs(in))
	case isa.OpSll:
		m.setR(in.Rd, m.R[in.Rs1]<<(uint32(m.rhs(in))&31))
	case isa.OpSrl:
		m.setR(in.Rd, int32(uint32(m.R[in.Rs1])>>(uint32(m.rhs(in))&31)))
	case isa.OpSra:
		m.setR(in.Rd, m.R[in.Rs1]>>(uint32(m.rhs(in))&31))
	case isa.OpSethi:
		m.setR(in.Rd, in.Imm<<12)
	case isa.OpSet:
		v := int32(0)
		if in.Cond.HoldsInt(m.R[in.Rs1], m.rhs(in)) {
			v = 1
		}
		m.setR(in.Rd, v)
	case isa.OpFSet:
		v := int32(0)
		if in.Cond.HoldsFloat(m.F[in.Rs1], m.F[in.Rs2]) {
			v = 1
		}
		m.setR(in.Rd, v)
	case isa.OpLw:
		m.Stats.Loads++
		a := m.R[in.Rs1] + m.rhs(in)
		v, err := m.loadWord(a)
		if err != nil {
			return true, err
		}
		m.setR(in.Rd, v)
	case isa.OpLb:
		m.Stats.Loads++
		a := m.R[in.Rs1] + m.rhs(in)
		if a < 0 || int(a) >= len(m.Mem) {
			return true, m.trapHere(TrapOOBLoad, "byte load out of range: %#x", uint32(a))
		}
		m.setR(in.Rd, int32(int8(m.Mem[a])))
	case isa.OpSw:
		m.Stats.Stores++
		a := m.R[in.Rs1] + m.rhs(in)
		if err := m.storeWord(a, m.R[in.Rd]); err != nil {
			return true, err
		}
	case isa.OpSb:
		m.Stats.Stores++
		a := m.R[in.Rs1] + m.rhs(in)
		if a < 0 || int(a) >= len(m.Mem) {
			return true, m.trapHere(TrapOOBStore, "byte store out of range: %#x", uint32(a))
		}
		m.Mem[a] = byte(m.R[in.Rd])
	case isa.OpLf:
		m.Stats.Loads++
		a := m.R[in.Rs1] + m.rhs(in)
		if a < 0 || int(a)+8 > len(m.Mem) {
			return true, m.trapHere(TrapOOBLoad, "float load out of range: %#x", uint32(a))
		}
		var bits uint64
		for i := 0; i < 8; i++ {
			bits |= uint64(m.Mem[a+int32(i)]) << (8 * i)
		}
		m.F[in.Rd] = isa.FloatFromBits(bits)
	case isa.OpSf:
		m.Stats.Stores++
		a := m.R[in.Rs1] + m.rhs(in)
		if a < 0 || int(a)+8 > len(m.Mem) {
			return true, m.trapHere(TrapOOBStore, "float store out of range: %#x", uint32(a))
		}
		bits := floatBits(m.F[in.Rd])
		for i := 0; i < 8; i++ {
			m.Mem[a+int32(i)] = byte(bits >> (8 * i))
		}
	case isa.OpFadd:
		m.F[in.Rd] = m.F[in.Rs1] + m.F[in.Rs2]
	case isa.OpFsub:
		m.F[in.Rd] = m.F[in.Rs1] - m.F[in.Rs2]
	case isa.OpFmul:
		m.F[in.Rd] = m.F[in.Rs1] * m.F[in.Rs2]
	case isa.OpFdiv:
		m.F[in.Rd] = m.F[in.Rs1] / m.F[in.Rs2]
	case isa.OpFneg:
		m.F[in.Rd] = -m.F[in.Rs1]
	case isa.OpFmov:
		m.F[in.Rd] = m.F[in.Rs1]
	case isa.OpCvtif:
		m.F[in.Rd] = float64(m.R[in.Rs1])
	case isa.OpCvtfi:
		m.setR(in.Rd, int32(m.F[in.Rs1]))
	case isa.OpTrap:
		return true, m.trap(in)
	default:
		return false, nil
	}
	return true, nil
}

func (m *Machine) trap(in *isa.Inst) error {
	switch in.Imm {
	case isa.TrapExit:
		m.halted = true
		m.status = m.R[1]
	case isa.TrapGetc:
		if m.inPos >= len(m.input) {
			m.R[1] = -1
		} else {
			m.R[1] = int32(m.input[m.inPos])
			m.inPos++
		}
	case isa.TrapPutc:
		m.out.WriteByte(byte(m.R[1]))
	case isa.TrapPutf:
		m.putFloat(m.F[1])
	default:
		return m.trapHere(TrapIllegalInstr, "unknown trap %d", in.Imm)
	}
	return nil
}

// putFloat appends v formatted as %.4f — the putf trap's fixed format —
// without fmt's reflection and interface allocation on the hot path.
// strconv.AppendFloat('f', 4) matches fmt's output for every value,
// including NaN and the infinities.
func (m *Machine) putFloat(v float64) {
	m.scratch = strconv.AppendFloat(m.scratch[:0], v, 'f', 4, 64)
	m.out.Write(m.scratch)
}

func floatBits(f float64) uint64 {
	return isa.FloatBits(f)
}
