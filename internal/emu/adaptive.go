package emu

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"unsafe"

	"branchreg/internal/isa"
)

// The adaptive tier (LoopAdaptive) closes the fusion loop at runtime,
// the way a tiered JIT promotes interpreted code: every program starts
// in the profiled predecoded fast loop with a private flow-conservation
// profile attached, and when any block's arrival count crosses the
// promotion threshold the program is re-decoded into a *mixed-tier*
// fused form — blocks the warmup actually executed are re-fused with a
// vocabulary mined from this program's own pair/triple adjacencies
// (static + extended candidate tables, dynamic-programming segmentation)
// while never-executed blocks keep their per-uop fast-tier form — and
// the run continues in the fused engine. Promotion state lives on the
// program itself and is shared across runs, so a long-lived cached
// program (the brserve regime) pays the warmup once and every later
// request enters the promoted form directly.
//
// Byte-identity is structural, not vocabulary-dependent: every fused
// case body replicates the exact per-op semantics of the fast loop with
// per-component instruction accounting and per-slot trap PCs, so any
// segmentation under any mined vocabulary produces identical output,
// Stats, and trap diagnostics (held by the adaptive differential tests
// and FuzzAdaptiveDifferential).

// DefaultPromoteThreshold is the block arrival count that triggers
// promotion when Machine.PromoteThreshold is zero. 64 arrivals is late
// enough that straight-line one-shot code never pays for mining, and
// early enough that any loop worth fusing promotes within its first few
// thousand instructions.
const DefaultPromoteThreshold = 64

// RefusionStats describes what the adaptive tier did for one run: did
// the run execute (any part of it) in a promoted form, how many
// promotions this program has seen, the mixed-tier block split, the
// mined vocabulary size, and how many instructions of warmup profiling
// fed the mining.
type RefusionStats struct {
	Promoted     bool  `json:"promoted"`
	Promotions   int64 `json:"promotions,omitempty"`
	HotBlocks    int   `json:"hot_blocks,omitempty"`
	ColdBlocks   int   `json:"cold_blocks,omitempty"`
	VocabPairs   int   `json:"vocab_pairs,omitempty"`
	VocabTriples int   `json:"vocab_triples,omitempty"`
	WarmupInsts  int64 `json:"warmup_insts,omitempty"`
}

// promotedForm is the immutable result of one promotion: the mixed-tier
// fused program, the stats describing how it was built, and the heap it
// retains.
type promotedForm struct {
	fp           *fprog
	hotBlocks    int
	coldBlocks   int
	vocabPairs   int
	vocabTriples int
	warmupInsts  int64
	bytes        int64
}

// adaptiveState is the per-program promotion state machine: an
// accumulated warmup profile (merged from completed or suspended
// warmup runs) and, once any block crosses the threshold, the promoted
// form. The zero state means "cold: keep warming up". bytes tracks the
// heap the state retains (see AdaptiveBytes).
type adaptiveState struct {
	mu         sync.Mutex
	prof       *BlockProfile // accumulated warmup flow counts
	promoted   atomic.Pointer[promotedForm]
	promotions atomic.Int64
	bytes      atomic.Int64
}

// adaptiveStateFor returns p's promotion state, attaching a cold one on
// first use. The state lives in the program's emulator slot
// (isa.Program.EmuState), so it is freed with the program: a freshly
// compiled program gets fresh, isolated state, and a program a cache
// evicts takes its warmup profile and promoted form with it.
func adaptiveStateFor(p *isa.Program) *adaptiveState {
	return p.EmuState(func() any { return &adaptiveState{} }).(*adaptiveState)
}

// AdaptiveBytes reports the heap the adaptive tier retains for p: its
// banked warmup profile and its promoted form, 0 if p never ran
// adaptively. A cache that holds p charges this on top of
// p.RetainedBytes().
func AdaptiveBytes(p *isa.Program) int64 {
	st, _ := p.EmuState(nil).(*adaptiveState)
	if st == nil {
		return 0
	}
	return st.bytes.Load()
}

// bank merges a finished or suspended warmup profile into the state's
// accumulated one; st.mu must be held.
func (st *adaptiveState) bank(prof *BlockProfile) {
	if st.prof == nil {
		st.prof = prof
		st.bytes.Add(prof.bytes())
		return
	}
	st.prof.Merge(prof)
}

// promoteLocked builds and publishes the promoted form unless another
// run already did; st.mu must be held.
func (st *adaptiveState) promoteLocked(p *isa.Program, dec []uop) *promotedForm {
	pf := st.promoted.Load()
	if pf == nil {
		pf = promote(p, dec, st.prof)
		st.promoted.Store(pf)
		st.promotions.Add(1)
		st.bytes.Add(pf.bytes)
	}
	return pf
}

// bytes is the heap the profile's five counter arrays occupy.
func (p *BlockProfile) bytes() int64 {
	return 8 * int64(cap(p.Arrive)+cap(p.Depart)+cap(p.Taken)+cap(p.NotTaken)+cap(p.Penalty))
}

// bytes is the heap a block-fused form occupies, its flat predecoded
// form included.
func (fp *fprog) bytes() int64 {
	return int64(unsafe.Sizeof(*fp)) +
		int64(unsafe.Sizeof(fuop{}))*int64(cap(fp.ops)) +
		int64(unsafe.Sizeof(fblock{}))*int64(cap(fp.blocks)) +
		4*int64(cap(fp.pc2block)) +
		int64(unsafe.Sizeof(uop{}))*int64(cap(fp.dec))
}

// Merge adds other's counts into p. Both profiles must be sized for the
// same program.
func (p *BlockProfile) Merge(other *BlockProfile) {
	for i := range p.Arrive {
		p.Arrive[i] += other.Arrive[i]
		p.Depart[i] += other.Depart[i]
		p.Taken[i] += other.Taken[i]
		p.NotTaken[i] += other.NotTaken[i]
		p.Penalty[i] += other.Penalty[i]
	}
}

// errPromote is the sentinel a promoteCtx returns to suspend a warmup
// run the moment a block crosses the promotion threshold. The profiled
// fast loops already sync m.pc/m.pending/Stats exactly on any context
// error, so the run is resumable in the promoted form.
var errPromote = errors.New("emu: promotion threshold crossed")

// promoteCtx wraps the run context so the warmup loop's existing
// ctxCheckStride poll doubles as the promotion check: Err() reports
// errPromote once any block's arrival count reaches the threshold.
// The scan is O(text length) once per 65536 instructions — off the
// per-instruction and per-transfer hot paths entirely.
type promoteCtx struct {
	context.Context
	arrive    []int64
	base      []int64 // accumulated arrivals from earlier runs (may be nil)
	threshold int64
}

func (c *promoteCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if c.base != nil {
		for i, a := range c.arrive {
			if a+c.base[i] >= c.threshold {
				return errPromote
			}
		}
		return nil
	}
	for _, a := range c.arrive {
		if a >= c.threshold {
			return errPromote
		}
	}
	return nil
}

// dynVocab is a vocabulary mined from one program's own warmup profile:
// the pair/triple patterns (from the static and extended candidate
// tables) that actually occur adjacently in the program's executed
// blocks. Lookup keys pack the component kinds into one integer.
type dynVocab struct {
	pairs   map[uint16]uopKind
	triples map[uint32]uopKind
}

func pairKey(a, b uopKind) uint16      { return uint16(a)<<8 | uint16(b) }
func tripleKey(a, b, c uopKind) uint32 { return uint32(a)<<16 | uint32(b)<<8 | uint32(c) }

func (v *dynVocab) pair(a, b uopKind) (uopKind, bool) {
	k, ok := v.pairs[pairKey(a, b)]
	return k, ok
}

func (v *dynVocab) triple(a, b, c uopKind) (uopKind, bool) {
	k, ok := v.triples[tripleKey(a, b, c)]
	return k, ok
}

// mineVocab walks the unfused block form of p weighted by the warmup
// profile's reconstructed execution counts (the PairStats model) and
// collects every candidate pair/triple pattern that occurs in an
// executed block. Patterns come from the union of the static tables
// (fusePair/fuseTriple) and the extended adaptive-only tables
// (fusePairExt/fuseTripleExt) — the extended tables hold combinations
// below the global static cutoff that individual workloads push hot.
func mineVocab(fp *fprog, counts []int64) *dynVocab {
	v := &dynVocab{pairs: map[uint16]uopKind{}, triples: map[uint32]uopKind{}}
	for bi := range fp.blocks {
		b := &fp.blocks[bi]
		if b.term == ftBail {
			continue
		}
		body := fp.ops[b.off : b.off+b.n]
		var entered int64
		if len(body) > 0 {
			entered = counts[body[0].pc]
		} else {
			entered = counts[b.termPC]
		}
		if entered == 0 {
			continue
		}
		for i := 0; i+1 < len(body); i++ {
			a, bk := body[i].kind, body[i+1].kind
			if k, ok := fusePair(a, bk); ok {
				v.pairs[pairKey(a, bk)] = k
			} else if k, ok := fusePairExt(a, bk); ok {
				v.pairs[pairKey(a, bk)] = k
			}
			if i+2 < len(body) {
				c := body[i+2].kind
				if k, ok := fuseTriple(a, bk, c); ok {
					v.triples[tripleKey(a, bk, c)] = k
				} else if k, ok := fuseTripleExt(a, bk, c); ok {
					v.triples[tripleKey(a, bk, c)] = k
				}
			}
		}
	}
	return v
}

// promote builds the promoted form from the accumulated warmup profile:
// mine this program's vocabulary, then re-decode with hot-gated
// DP-segmented fusion — executed blocks fuse under the mined
// vocabulary, never-executed blocks keep the fast tier's per-uop form,
// and both chain through the same pre-linked successor graph
// (mixed-tier chaining inside one fprog).
func promote(p *isa.Program, dec []uop, prof *BlockProfile) *promotedForm {
	unfused := buildFprog(p, dec, nil)
	counts := prof.Counts()
	vocab := mineVocab(unfused, counts)
	var warm int64
	for _, c := range counts {
		warm += c
	}
	pol := &fusePolicy{
		pair:   vocab.pair,
		triple: vocab.triple,
		hot:    func(start int) bool { return counts[start] > 0 },
		dp:     true,
	}
	fp := buildFprog(p, dec, pol)
	pf := &promotedForm{
		fp:           fp,
		vocabPairs:   len(vocab.pairs),
		vocabTriples: len(vocab.triples),
		warmupInsts:  warm,
		bytes:        fp.bytes(),
	}
	for bi := range fp.blocks {
		if counts[fp.blocks[bi].start] > 0 {
			pf.hotBlocks++
		} else {
			pf.coldBlocks++
		}
	}
	return pf
}

// refusion reports the promoted form's stats into m.Refusion.
func (m *Machine) refusion(st *adaptiveState, pf *promotedForm) {
	m.Refusion = RefusionStats{
		Promoted:     true,
		Promotions:   st.promotions.Load(),
		HotBlocks:    pf.hotBlocks,
		ColdBlocks:   pf.coldBlocks,
		VocabPairs:   pf.vocabPairs,
		VocabTriples: pf.vocabTriples,
		WarmupInsts:  pf.warmupInsts,
	}
}

// runAdaptive is the LoopAdaptive engine: promoted programs enter the
// fused form directly; cold programs warm up in the profiled fast loop
// until the threshold promotes them (mid-run if crossed mid-run). m.Prof
// is always nil here: RunContext sends caller-profiled runs to the
// profiled fast loop, so a caller's profile never splits across
// promotion.
func (m *Machine) runAdaptive(ctx context.Context) (int32, error) {
	baseline := m.P.Kind == isa.Baseline
	threshold := m.PromoteThreshold
	if threshold == 0 {
		threshold = DefaultPromoteThreshold
	}
	if threshold < 0 {
		// Promotion disabled: the adaptive tier degenerates to the plain
		// fast loop, touching no shared state.
		if baseline {
			return m.runFastBaseline(ctx)
		}
		return m.runFastBRM(ctx)
	}
	st := adaptiveStateFor(m.P)
	if pf := st.promoted.Load(); pf != nil {
		m.refusion(st, pf)
		m.fp = pf.fp
		if baseline {
			return runFusedBaseline(m, ctx)
		}
		return runFusedBRM(m, ctx)
	}

	// Warmup: profiled fast loop over a private per-run profile, with
	// the stride poll promoted into a threshold check. Mirror RunContext's
	// profile open/close so the partial profile conserves flow.
	prof := NewBlockProfile(len(m.P.Text))
	if m.pc >= 0 && m.pc < len(prof.Arrive) {
		prof.Arrive[m.pc]++
	}
	var base []int64
	st.mu.Lock()
	if st.prof != nil {
		base = append([]int64(nil), st.prof.Arrive...)
	}
	st.mu.Unlock()
	pctx := &promoteCtx{Context: ctx, arrive: prof.Arrive, base: base, threshold: threshold}
	var status int32
	var err error
	if baseline {
		status, err = runFastBaselineProf(m, pctx, prof)
	} else {
		status, err = runFastBRMProf(m, pctx, prof)
	}
	if err != nil && !errors.Is(err, errPromote) {
		// Completed trap, or a real cancellation. Close the flow on
		// halt/trap (the RunContext contract) and bank the warmup; a
		// cancelled run stays open and is discarded — it may resume.
		var t *Trap
		if errors.As(err, &t) {
			if m.pc >= 0 && m.pc < len(prof.Depart) {
				prof.Depart[m.pc]++
			}
			m.mergeWarmup(st, prof, threshold)
		}
		return status, err
	}
	if err == nil {
		// Run completed below the threshold. Bank the warmup; if the
		// accumulated profile now crosses the threshold, promote for the
		// next run.
		if m.halted {
			if m.pc >= 0 && m.pc < len(prof.Depart) {
				prof.Depart[m.pc]++
			}
		}
		m.mergeWarmup(st, prof, threshold)
		return status, nil
	}

	// Promotion crossed mid-run: close the suspended profile's flow at
	// the next-to-run instruction, bank it, promote, and continue this
	// same run in the promoted form.
	if m.pc >= 0 && m.pc < len(prof.Depart) {
		prof.Depart[m.pc]++
	}
	st.mu.Lock()
	st.bank(prof)
	pf := st.promoteLocked(m.P, m.dec)
	st.mu.Unlock()
	m.refusion(st, pf)

	// Bridge to a block leader: the fused engine enters only at block
	// boundaries with no pending delayed branch, so step per-instruction
	// (instrumented semantics — byte-identical budget accounting and ctx
	// polling) until control lands on one.
	fp := pf.fp
	next := m.Stats.Instructions + ctxCheckStride
	for !m.halted {
		if m.pending == -2 && m.pc >= 0 && m.pc < len(fp.pc2block) && fp.pc2block[m.pc] >= 0 {
			break
		}
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
	if m.halted {
		return m.status, nil
	}
	m.fp = fp
	if baseline {
		return runFusedBaseline(m, ctx)
	}
	return runFusedBRM(m, ctx)
}

// mergeWarmup banks a completed warmup profile into the shared state
// and promotes for future runs if the accumulated arrivals cross the
// threshold (the cross-run promotion path: programs too short to
// promote in one run still promote once repeated runs accumulate).
func (m *Machine) mergeWarmup(st *adaptiveState, prof *BlockProfile, threshold int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.bank(prof)
	if st.promoted.Load() != nil {
		return
	}
	for _, a := range st.prof.Arrive {
		if a >= threshold {
			st.promoteLocked(m.P, m.dec)
			return
		}
	}
}
