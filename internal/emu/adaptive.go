package emu

import (
	"context"
	"errors"
	"sync/atomic"
	"unsafe"

	"branchreg/internal/isa"
)

// Every program has at most one block-fused form, built from the static
// pair/triple tables (fusedtab.go) the first time a run needs it and
// kept on the program itself (isa.Program.EmuState), so LoopFused,
// LoopAuto and LoopAdaptive runs share one decode and it is freed with
// the program.
//
// LoopAdaptive is the rule for when to enter that form. Building it
// costs a block decode, which a short run never earns back, so a cold
// program's first run starts on the plain fast loop and switches to the
// fused form at its first context poll (ctxCheckStride instructions);
// every later run enters the form from the start. A program that runs
// once, briefly — most of a stream of distinct programs — never builds
// a form. Byte identity needs nothing of the rule: the fast and fused
// loops agree at every block boundary (held by the adaptive
// differential tests and FuzzAdaptiveDifferential).

// RefusionStats describes what the adaptive tier did for one run.
type RefusionStats struct {
	// Promoted reports that the run executed (some of) the program's
	// fused form: from the start, or after switching at its first poll.
	Promoted bool `json:"promoted"`
}

// formState is a program's emulator state: its fused form once built,
// and whether an adaptive run has already started on it.
type formState struct {
	fp  atomic.Pointer[fprog]
	ran atomic.Bool
}

// formStateFor returns p's emulator state, attaching an empty one on
// first use.
func formStateFor(p *isa.Program) *formState {
	return p.EmuState(func() any { return &formState{} }).(*formState)
}

// fusedForm returns p's fused form, building it from dec (predecoding
// p when dec is nil) on first use. Concurrent first uses may each
// build one; the first to publish wins and the others are dropped.
func fusedForm(p *isa.Program, dec []uop) *fprog {
	st := formStateFor(p)
	if fp := st.fp.Load(); fp != nil {
		return fp
	}
	if dec == nil {
		dec = predecode(p)
	}
	fp := buildFprog(p, dec, true)
	if !st.fp.CompareAndSwap(nil, fp) {
		fp = st.fp.Load()
	}
	return fp
}

// AdaptiveBytes reports the heap p's fused form retains (its flat
// predecoded form included), 0 if no run has built one. A cache that
// holds p charges this on top of p.RetainedBytes().
func AdaptiveBytes(p *isa.Program) int64 {
	st, _ := p.EmuState(nil).(*formState)
	if st == nil {
		return 0
	}
	if fp := st.fp.Load(); fp != nil {
		return fp.bytes()
	}
	return 0
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

// errPromote is the sentinel a promoteCtx returns to suspend a cold
// run at its first poll. The fast loops sync m.pc/m.pending/Stats
// exactly on any context error, so the run resumes in the fused form.
var errPromote = errors.New("emu: first poll, entering the fused form")

// promoteCtx turns the fast loop's first context poll into the switch
// to the fused form: Err reports errPromote unless the run's own
// context has ended.
type promoteCtx struct{ context.Context }

func (c promoteCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	return errPromote
}

// runAdaptive is the LoopAdaptive engine: a program that already has
// its fused form, or that an earlier adaptive run has seen, runs in the
// form from the start; a cold program runs the plain fast loop and
// switches to the form at its first poll.
func (m *Machine) runAdaptive(ctx context.Context) (int32, error) {
	st := formStateFor(m.P)
	if st.fp.Load() != nil || st.ran.Swap(true) {
		m.Refusion.Promoted = true
		return m.runFused(ctx)
	}
	status, err := m.runFast(promoteCtx{ctx})
	if !errors.Is(err, errPromote) {
		return status, err
	}
	m.Refusion.Promoted = true
	fp := fusedForm(m.P, m.dec)
	m.fp, m.dec = fp, fp.dec

	// Bridge to a block leader: the fused engine enters only at block
	// boundaries with no pending delayed branch, so step per-instruction
	// (instrumented semantics — byte-identical budget accounting and ctx
	// polling) until control lands on one.
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
	return m.runFused(ctx)
}
