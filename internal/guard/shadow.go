package guard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
)

// Online shadow verification: the offline differential oracle
// (brload/fuzz) only catches an engine miscompare when someone runs it;
// the shadow pool moves that check into production. A deterministic
// sample of successful responses is re-executed in the background on
// the alternate engine tier — adaptive and fused responses re-run on the
// fast loop, fast responses on the instrumented loop — and compared byte
// for byte (output, exit status, instruction count). A mismatch records
// an incident and immediately quarantines the (class, served-tier) pair:
// the more aggressive tier is the suspect, because the tiers below it
// are strictly simpler and the instrumented loop is the semantic
// reference.

// shadowJob is one sampled response awaiting re-execution.
type shadowJob struct {
	class string
	req   driver.Request // Loop already rewritten to the alternate tier
	tier  string         // tier that served the primary response
	alt   string         // tier the shadow runs on
	res   *driver.Result // the served result (read-only)
}

// shadowPool runs shadow jobs on background workers with a bounded
// queue: verification must never block or backpressure serving, so a
// full queue drops the sample (counted) instead of waiting.
type shadowPool struct {
	sup     *Supervisor
	queue   chan shadowJob
	workers sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

func newShadowPool(sup *Supervisor, workers, depth int) *shadowPool {
	p := &shadowPool{sup: sup, queue: make(chan shadowJob, depth)}
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		go p.worker()
	}
	return p
}

// enqueue offers a job without blocking. It is safe against a
// concurrent close: the RLock holds the channel open for the send.
func (p *shadowPool) enqueue(j shadowJob) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.queue <- j:
		return true
	default:
		return false
	}
}

// close stops admission, lets queued jobs finish, and waits.
func (p *shadowPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.workers.Wait()
}

func (p *shadowPool) worker() {
	defer p.workers.Done()
	for j := range p.queue {
		p.sup.runShadow(j)
	}
}

// altTier returns the engine a tier's shadow runs on ("" = no simpler
// tier exists; the instrumented loop is the reference semantics).
func altTier(mode emu.LoopMode) (emu.LoopMode, bool) {
	switch mode {
	case emu.LoopAdaptive, emu.LoopFused:
		return emu.LoopFast, true
	case emu.LoopFast:
		return emu.LoopInstrumented, true
	default:
		return 0, false
	}
}

// shadowClassCap bounds the per-class sample counters. A raw-source
// class is one program, so under a stream of distinct programs one
// counter per class would grow without end; a new class arriving at the
// cap restarts every class's count instead.
const shadowClassCap = 4096

// maybeShadow samples a successful execution for shadow verification.
// Sampling is deterministic, so chaos smoke runs and tests can predict
// exactly which executions are shadowed: every ShadowRate'th execution
// of a class is sampled, and so is a class's first execution when it
// brings a supervisor-wide count of first executions to a multiple of
// ShadowRate. The second rule reaches traffic in which every program is
// new (a class run fewer than ShadowRate times is otherwise never
// sampled); a class that repeats keeps its own cadence. Every Result
// the supervisor sees is a real execution: brserve answers memo hits
// and coalesced followers at admission, without calling Exec.
func (s *Supervisor) maybeShadow(class string, req driver.Request, tier emu.LoopMode, res *driver.Result) bool {
	if s.shadow == nil {
		return false
	}
	alt, ok := altTier(tier)
	if !ok {
		return false
	}
	rate := int64(s.cfg.ShadowRate)
	s.mu.Lock()
	if _, ok := s.shadowN[class]; !ok && len(s.shadowN) >= shadowClassCap {
		clear(s.shadowN)
	}
	n := s.shadowN[class] + 1
	s.shadowN[class] = n
	due := n%rate == 0
	if n == 1 {
		s.firstN++
		due = due || s.firstN%rate == 0
	}
	s.mu.Unlock()
	if !due {
		return false
	}
	s.m.shadowSampled.Inc()
	shadowReq := req
	shadowReq.Loop = alt
	shadowReq.Profile = nil
	if !s.shadow.enqueue(shadowJob{
		class: class, req: shadowReq, tier: tierName(tier), alt: tierName(alt), res: res,
	}) {
		s.m.shadowDropped.Inc()
		return false
	}
	return true
}

// runShadow re-executes one sampled request on the alternate tier and
// compares. Called from a shadow worker. The re-execution's wall clock
// lands in the serve.latency.shadow.<outcome>.<tier> histograms (the
// serve.latency family is the request-phase latency namespace; shadow
// verification is the one phase that runs off the request path), so
// /metrics shows what background verification costs next to what
// serving costs.
func (s *Supervisor) runShadow(j shadowJob) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShadowTimeout)
	defer cancel()
	start := time.Now()
	alt, err := s.attempt(ctx, j.class, j.req, j.alt)
	outcome := "ok"
	switch {
	case err != nil:
		outcome = "error"
	case diffResults(j.res, alt) != "":
		outcome = "mismatch"
	}
	s.cfg.Metrics.Histogram(fmt.Sprintf("serve.latency.shadow.%s.%s", outcome, j.alt)).
		Observe(time.Since(start).Nanoseconds())
	if err != nil {
		// The primary succeeded, so any shadow error is suspicious — but
		// an error is not a byte mismatch: it may be a panic in the
		// *shadow* tier (its own breaker problem) or a shutdown-time
		// timeout. Count it without quarantining the served tier.
		s.m.shadowError.Inc()
		s.record(IncidentShadowMismatch, j.class, j.tier,
			fmt.Sprintf("shadow re-execution on %s failed instead of reproducing the response: %v", j.alt, err))
		return
	}
	if diff := diffResults(j.res, alt); diff != "" {
		s.m.shadowMismatch.Inc()
		s.record(IncidentShadowMismatch, j.class, j.tier,
			fmt.Sprintf("served %s response diverges from %s re-execution: %s", j.tier, j.alt, diff))
		s.Quarantine(j.class, j.tier, fmt.Sprintf("shadow mismatch vs %s (%s)", j.alt, diff))
		return
	}
	s.m.shadowOK.Inc()
}

// diffResults compares the served result against the shadow result
// byte for byte, returning "" on agreement.
func diffResults(served, shadow *driver.Result) string {
	if served.Output != shadow.Output {
		return fmt.Sprintf("output differs (%d bytes served, %d shadow)", len(served.Output), len(shadow.Output))
	}
	if served.Status != shadow.Status {
		return fmt.Sprintf("exit status %d vs %d", served.Status, shadow.Status)
	}
	if served.Stats.Instructions != shadow.Stats.Instructions {
		return fmt.Sprintf("instruction count %d vs %d", served.Stats.Instructions, shadow.Stats.Instructions)
	}
	return ""
}
