package emu

// BlockProfile accumulates the control-flow counts of one run with costs
// paid only at transfers of control, never per instruction. The
// instrumented loop fills it (jumpTo, profBranch, brmAdvance): every
// profiled run executes there, whatever its LoopMode. Per-instruction
// execution counts are not stored; they are reconstructed after the run
// by flow conservation (Counts), so straight-line execution touches no
// profile state at all.
//
// The arrays are indexed by Text index (one slot per instruction):
//
//   - Arrive[i] counts non-sequential entries to i (taken transfers
//     landing on i, plus one for the program entry point);
//   - Depart[i] counts non-sequential exits from i (taken transfers
//     leaving the instruction that applied them — on the baseline
//     machine that is the delay-slot instruction — plus the final
//     instruction of the run);
//   - Taken[i]/NotTaken[i] tally branch outcomes at branch site i
//     (unconditional transfers count as taken; the program-exit
//     transfer is not a workload transfer and is not tallied,
//     mirroring Stats);
//   - Penalty[i] accumulates the Figure 9 late-calculation stall
//     cycles charged to BRM transfer site i (always zero on the
//     baseline machine, whose cost is uniform per transfer).
//
// A profile from a run that ended in a trap charges the faulting
// instruction as executed (matching Stats.Instructions, which counts an
// instruction when it begins); a run cut off by a step-budget trap or
// context cancellation may over-count the next-to-run instruction by one.
type BlockProfile struct {
	Arrive   []int64
	Depart   []int64
	Taken    []int64
	NotTaken []int64
	Penalty  []int64
}

// NewBlockProfile returns a profile sized for a program with textLen
// instructions (len(isa.Program.Text)).
func NewBlockProfile(textLen int) *BlockProfile {
	return &BlockProfile{
		Arrive:   make([]int64, textLen),
		Depart:   make([]int64, textLen),
		Taken:    make([]int64, textLen),
		NotTaken: make([]int64, textLen),
		Penalty:  make([]int64, textLen),
	}
}

// Counts reconstructs per-instruction execution counts by flow
// conservation: control reaches instruction i either sequentially from
// i-1 (unless i-1 departed) or by arriving non-sequentially at i, so
//
//	count[i] = count[i-1] - Depart[i-1] + Arrive[i]
//
// For a completed run, the counts sum to Stats.Instructions.
func (p *BlockProfile) Counts() []int64 {
	counts := make([]int64, len(p.Arrive))
	prev := int64(0)
	for i := range counts {
		c := prev + p.Arrive[i]
		if i > 0 {
			c -= p.Depart[i-1]
		}
		if c < 0 {
			c = 0 // incomplete profile (cancelled run); clamp, don't lie
		}
		counts[i] = c
		prev = c
	}
	return counts
}

// Engine names recorded by RunContext (satellite of the observability
// layer: LoopAuto's fallback to the instrumented loop used to be
// silent; now every run names the engine that actually executed it).
const (
	EngineFast         = "fast"
	EngineInstrumented = "instrumented"
	EngineFused        = "fused"
	EngineAdaptive     = "adaptive"
)

// Engine returns the name of the engine the last RunContext call used
// ("" before any run).
func (m *Machine) Engine() string { return m.engine }

// profBranch tallies a branch outcome at the current pc.
func (m *Machine) profBranch(taken bool) {
	p := m.Prof
	if p == nil {
		return
	}
	if taken {
		p.Taken[m.pc]++
	} else {
		p.NotTaken[m.pc]++
	}
}
