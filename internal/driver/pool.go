package driver

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"time"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/obs"
)

// The emulator's memory image is isa.MemBytes (4 MiB) per run. An
// experiment suite executes hundreds of runs across exp.Runner's worker
// pool, so allocating a fresh image each time dominates the allocation
// profile and keeps the garbage collector busy reclaiming identical
// buffers. The pool recycles them, and a released image is reset to
// zeros, so a pooled Get is indistinguishable from a fresh allocation.
//
// A run writes a few pages of the image: its data segment and the top
// of its stack. On Linux an image is therefore a private anonymous
// mapping outside the Go heap, and the reset is one madvise(DONTNEED)
// over it. The kernel drops just the pages the run touched, and the
// next read of any of them faults in a zero page, so no emulator loop
// needs a per-store check. Elsewhere, or when madvise fails, the reset
// clears the whole image (pool_linux.go, pool_other.go).
//
// The pool is a mutex-guarded free list, not a sync.Pool: a sync.Pool is
// emptied by garbage collections, and a server that collects often (a
// bounded heap under a stream of distinct programs) would then allocate
// a whole 4 MiB image after each one. The list keeps at most
// memPoolSlack images per GOMAXPROCS, enough for every concurrent run
// plus the shadow verifier's; an image released while the list is full
// is unmapped. Nothing holds an image after releaseMem.
var memPool struct {
	mu   sync.Mutex
	free [][]byte
}

const memPoolSlack = 2

// borrowMem returns a zeroed isa.MemBytes buffer.
func borrowMem() []byte {
	mPoolGets.Inc()
	memPool.mu.Lock()
	if n := len(memPool.free); n > 0 {
		b := memPool.free[n-1]
		memPool.free[n-1] = nil
		memPool.free = memPool.free[:n-1]
		memPool.mu.Unlock()
		return b
	}
	memPool.mu.Unlock()
	mPoolFresh.Inc()
	return newImage()
}

// releaseMem resets the buffer to zeros and returns it to the pool, or
// frees it when the pool is full.
func releaseMem(b []byte) {
	start := time.Now()
	resetImage(b)
	mPoolZeroNS.Observe(time.Since(start).Nanoseconds())
	mPoolPuts.Inc()
	limit := memPoolSlack * runtime.GOMAXPROCS(0)
	memPool.mu.Lock()
	if len(memPool.free) < limit {
		memPool.free = append(memPool.free, b)
		b = nil
	}
	memPool.mu.Unlock()
	if b != nil {
		freeImage(b)
	}
}

// execute runs a linked program with pooled emulator memory under the
// Request's execution fields (Input, Faults, Loop, OutputHint,
// MaxInstructions, Profile). Every execution path funnels through here,
// so the pool, the metrics, and the trap accounting behave identically
// for Exec and Cache.Exec.
func execute(ctx context.Context, p *isa.Program, req *Request) (*Result, error) {
	mem := borrowMem()
	defer releaseMem(mem)
	m, err := emu.NewWithMem(p, req.Input, mem)
	if err != nil {
		return nil, err
	}
	m.SetFaultPlan(req.Faults)
	m.Loop = req.Loop
	m.Prof = req.Profile
	m.ReserveOutput(req.OutputHint)
	if req.MaxInstructions > 0 {
		m.MaxInstructions = req.MaxInstructions
	}
	start := time.Now()
	status, err := m.RunContext(ctx)
	runNS := time.Since(start).Nanoseconds()
	mRuns.Inc()
	mRunNS.Observe(runNS)
	switch m.Engine() {
	case emu.EngineFused:
		mEngineFused.Inc()
		mFusedBlocks.Add(m.Fusion.Blocks)
		mFusedSupers.Add(m.Fusion.Fused)
		mFusedBails.Add(m.Fusion.Bails)
	case emu.EngineAdaptive:
		mEngineAdaptive.Inc()
		mFusedBlocks.Add(m.Fusion.Blocks)
		mFusedSupers.Add(m.Fusion.Fused)
		mFusedBails.Add(m.Fusion.Bails)
		if m.Refusion.Promoted {
			mRefusionPromoted.Inc()
		}
	case emu.EngineFast:
		mEngineFast.Inc()
	case emu.EngineInstrumented:
		mEngineInst.Inc()
	}
	mEmuInsts.Add(m.Stats.Instructions)
	mEmuTransfers.Add(m.Stats.Transfers())
	if err != nil {
		var t *emu.Trap
		if errors.As(err, &t) {
			// Trap kinds are kebab-case ("oob-load"); metric segments are
			// [a-z0-9_], so the hyphens map to underscores.
			obs.Default.Counter("emu.trap." + strings.ReplaceAll(t.Kind.String(), "-", "_")).Inc()
		}
		return nil, err
	}
	return &Result{Output: m.Output(), Status: status, Stats: m.Stats,
		Engine: m.Engine(), Fusion: m.Fusion, Refusion: m.Refusion,
		Timing: Timing{RunNS: runNS}}, nil
}
