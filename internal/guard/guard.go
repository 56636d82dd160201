// Package guard is the supervision layer between the brserve admission
// workers and driver.Exec: it makes engine bugs survivable (engine-tier
// fallback), detectable (online shadow differential verification), and
// containable (per-(class, engine) circuit breakers with quarantine).
//
// The block-fused engine is the most aggressive — and therefore the
// most bug-prone — execution tier. guard assumes exactly that: a
// recovered panic in one tier transparently retries the same
// driver.Request on the next-safer tier (adaptive or fused → fast →
// instrumented), annotating the result with the tier that actually
// served it. N
// consecutive failures of a tier for one workload class open that
// class's breaker, pinning it to the fallback tier for a cooldown with
// half-open probing to close it again. A configurable sample of
// successful responses is re-executed in the background on the
// alternate engine and compared byte for byte; a mismatch is recorded
// in a bounded incident ring and immediately quarantines the offending
// (class, engine) pair. Everything observable is exported through
// internal/obs under guard.fallback.*, guard.breaker.*, and
// guard.shadow.*.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/obs"
)

// ExecFunc executes one request. class is the caller's workload-class
// label (brserve passes "workload/machine" or "src:<hash>/machine");
// the underlying driver ignores it, but wrappers — the chaos injector —
// use it for targeting. Each call returns a Result of its own: the
// supervisor writes its fallback annotation into it.
type ExecFunc func(ctx context.Context, class string, req driver.Request) (*driver.Result, error)

// Config sizes a Supervisor. The zero value of every field but Exec is
// usable: New fills unset fields with the documented defaults.
type Config struct {
	// Exec is the underlying executor (required) — brserve passes its
	// compile cache's Exec, optionally wrapped by the chaos injector.
	Exec ExecFunc
	// Threshold is the consecutive-failure count that opens a
	// (class, tier) breaker (default 3).
	Threshold int
	// Cooldown is how long an open breaker skips its tier before
	// half-open probing (default 30s).
	Cooldown time.Duration
	// ShadowRate samples every Nth successful execution of a class for
	// background re-execution on the alternate engine (0 or negative
	// disables shadowing), and every Nth class's first execution, so
	// classes run only once are verified too. Sampling is a deterministic
	// counter, not a coin flip, so tests and smoke runs can predict it.
	ShadowRate int
	// ShadowTimeout bounds one shadow re-execution (default 2 minutes).
	ShadowTimeout time.Duration
	// IncidentCap bounds the incident ring buffer (default 256).
	IncidentCap int
	// Metrics supplies the registry guard records into (default obs.Default).
	Metrics *obs.Registry
	// Now is the clock (default time.Now) — a test hook so breaker
	// cooldown transitions are provable without sleeping.
	Now func() time.Time
	// OnQuarantine, when set, is called after Quarantine force-opens a
	// (class, tier) breaker — brserve hooks it to invalidate the result
	// cache's entries for the pair, so a quarantined tier cannot keep
	// serving stale results from memory after its breaker stops it from
	// executing. Called synchronously; keep it fast.
	OnQuarantine func(class, tier string)
}

// guardMetrics holds the resolved metric handles (one atomic op per
// event on the serving path, never a registry lookup).
type guardMetrics struct {
	fallbackAttempts  *obs.Counter // tier failures that moved a request down the chain
	fallbackSuccess   *obs.Counter // requests rescued by a lower tier
	fallbackExhausted *obs.Counter // requests that failed on every tier
	breakerOpen       *obs.Counter // closed/half-open → open transitions
	breakerClose      *obs.Counter // half-open → closed transitions
	breakerHalfOpen   *obs.Counter // open → half-open probe admissions
	breakerReroute    *obs.Counter // requests skipped past a quarantined tier
	breakerOpenNow    *obs.Gauge   // breakers currently open or half-open
	shadowSampled     *obs.Counter
	shadowOK          *obs.Counter
	shadowMismatch    *obs.Counter
	shadowError       *obs.Counter // shadow re-execution failed (not a comparison mismatch)
	shadowDropped     *obs.Counter // sampled but queue full
	incidents         *obs.Counter
}

func newGuardMetrics(r *obs.Registry) guardMetrics {
	return guardMetrics{
		fallbackAttempts:  r.Counter("guard.fallback.attempts"),
		fallbackSuccess:   r.Counter("guard.fallback.success"),
		fallbackExhausted: r.Counter("guard.fallback.exhausted"),
		breakerOpen:       r.Counter("guard.breaker.open"),
		breakerClose:      r.Counter("guard.breaker.close"),
		breakerHalfOpen:   r.Counter("guard.breaker.half_open"),
		breakerReroute:    r.Counter("guard.breaker.reroute"),
		breakerOpenNow:    r.Gauge("guard.breaker.open_now"),
		shadowSampled:     r.Counter("guard.shadow.sampled"),
		shadowOK:          r.Counter("guard.shadow.ok"),
		shadowMismatch:    r.Counter("guard.shadow.mismatch"),
		shadowError:       r.Counter("guard.shadow.error"),
		shadowDropped:     r.Counter("guard.shadow.dropped"),
		incidents:         r.Counter("guard.incidents"),
	}
}

// PanicError is a recovered engine panic carried as an error: the
// failure mode that triggers tier fallback, and — when every tier
// fails — the error the caller finally sees.
type PanicError struct {
	// Tier names the engine tier that panicked.
	Tier string
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("guard: %s engine panicked: %v", e.Tier, e.Value)
}

// Supervisor wraps an ExecFunc with fallback, breakers, and shadow
// verification. Create with New; stop the shadow workers with Close.
type Supervisor struct {
	cfg Config
	m   guardMetrics
	log *incidentLog
	now func() time.Time

	mu       sync.Mutex
	breakers map[breakerKey]*breaker // only pairs that failed since they last closed
	shadowN  map[string]int64        // per-class sampled-execution counters
	firstN   int64                   // first executions of classes, across classes

	shadow *shadowPool
}

// New builds a Supervisor. It panics if cfg.Exec is nil — a supervisor
// with nothing to supervise is a programming error, not a runtime
// condition.
func New(cfg Config) *Supervisor {
	if cfg.Exec == nil {
		panic("guard: Config.Exec is required")
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.ShadowTimeout <= 0 {
		cfg.ShadowTimeout = 2 * time.Minute
	}
	if cfg.IncidentCap <= 0 {
		cfg.IncidentCap = 256
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Supervisor{
		cfg:      cfg,
		m:        newGuardMetrics(cfg.Metrics),
		log:      newIncidentLog(cfg.IncidentCap),
		now:      cfg.Now,
		breakers: map[breakerKey]*breaker{},
		shadowN:  map[string]int64{},
	}
	if cfg.ShadowRate > 0 {
		s.shadow = newShadowPool(s)
	}
	return s
}

// Close stops the shadow workers and waits for in-flight shadow
// re-executions to finish. Exec must not be called after Close.
func (s *Supervisor) Close() {
	if s.shadow != nil {
		s.shadow.close()
	}
}

// Incidents returns a snapshot of the incident ring, newest first, and
// the total number of incidents ever recorded (recorded − len(snapshot)
// have been evicted from the bounded ring).
func (s *Supervisor) Incidents() ([]Incident, int64) { return s.log.snapshot() }

// tierName maps an engine tier to its emu engine name.
func tierName(mode emu.LoopMode) string {
	switch mode {
	case emu.LoopAdaptive:
		return emu.EngineAdaptive
	case emu.LoopFused:
		return emu.EngineFused
	case emu.LoopFast:
		return emu.EngineFast
	default:
		return emu.EngineInstrumented
	}
}

// chainFor resolves a request's engine-tier fallback chain. Requests
// the chain model cannot honor — armed fault plans or profile capture,
// which force (or are only honored by) specific engine behavior —
// return nil and execute passthrough, exactly once, with Loop
// untouched.
func chainFor(req *driver.Request) []emu.LoopMode {
	if req.Faults != nil || req.Profile != nil {
		return nil
	}
	switch req.Loop {
	case emu.LoopAuto, emu.LoopAdaptive:
		// Default (and explicitly adaptive) requests lead with the
		// adaptive tier: a cached program runs in its fused form, a
		// one-off program on the fast loop. A fused rung after it would
		// re-run the same generated loop on the same form, so the
		// fallback is the fast loop.
		return []emu.LoopMode{emu.LoopAdaptive, emu.LoopFast, emu.LoopInstrumented}
	case emu.LoopFused:
		return []emu.LoopMode{emu.LoopFused, emu.LoopFast, emu.LoopInstrumented}
	case emu.LoopFast:
		return []emu.LoopMode{emu.LoopFast, emu.LoopInstrumented}
	default:
		return []emu.LoopMode{emu.LoopInstrumented}
	}
}

// retryable reports whether a tier failure should move the request down
// the chain. Only a recovered engine panic is: typed traps are the
// program's own outcome (identical on every tier by the engine-identity
// contract), context errors are the caller's deadline, and anything
// else the driver returns is a compile or validation failure that no
// engine change can fix.
func retryable(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// outcomeFor labels a tier attempt's failure for its trace span: a
// recovered engine panic (the fallback trigger) is "panic", anything
// deterministic — trap, compile error, caller deadline — is "error".
func outcomeFor(err error) string {
	if retryable(err) {
		return "panic"
	}
	return "error"
}

// attempt runs one tier, converting a panic into a *PanicError. The
// named return values are what the deferred recover writes into.
func (s *Supervisor) attempt(ctx context.Context, class string, req driver.Request, tier string) (res *driver.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &PanicError{Tier: tier, Value: p}
		}
	}()
	return s.cfg.Exec(ctx, class, req)
}

// Exec supervises one request: it walks the engine-tier chain, skipping
// quarantined tiers, recovering panics, and feeding the breakers; on
// success it may enqueue a shadow re-execution. The returned Result
// carries the fallback annotation (FallbackFrom, Rerouted). Errors pass
// through untouched (a trap is still a trap, reachable with errors.As),
// except that a panic on the last tier surfaces as a *PanicError.
func (s *Supervisor) Exec(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
	chain := chainFor(&req)
	if chain == nil {
		sp, actx := obs.StartSpan(ctx, "tier:"+tierName(req.Loop), "guard")
		sp.SetArg("mode", "passthrough")
		res, err := s.attempt(actx, class, req, tierName(req.Loop))
		if err != nil {
			sp.SetArg("outcome", outcomeFor(err))
			sp.End()
			return nil, err
		}
		sp.SetArg("outcome", "ok")
		sp.End()
		return res, nil
	}

	var fellFrom []string
	rerouted := false
	for i, tier := range chain {
		name := tierName(tier)
		last := i == len(chain)-1
		key := breakerKey{class: class, tier: name}
		probe := false
		if !last {
			// The last tier is the safety net: it executes regardless of
			// breaker state, because skipping it would leave nowhere to go.
			switch s.admit(key, s.now()) {
			case admitSkip:
				s.m.breakerReroute.Inc()
				rerouted = true
				// A zero-duration span marks the skip, so the request's
				// span tree explains why its preferred tier never ran.
				sp, _ := obs.StartSpan(ctx, "tier:"+name, "guard")
				sp.SetArg("outcome", "skipped")
				sp.SetArg("reason", "breaker-open")
				sp.End()
				continue
			case admitProbe:
				probe = true
				s.m.breakerHalfOpen.Inc()
			}
		}

		req.Loop = tier
		sp, actx := obs.StartSpan(ctx, "tier:"+name, "guard")
		if probe {
			sp.SetArg("probe", "half-open")
		}
		res, err := s.attempt(actx, class, req, name)
		if err != nil {
			sp.SetArg("outcome", outcomeFor(err))
		}
		if err == nil {
			sp.SetArg("outcome", "ok")
			if !last && s.succeed(key, probe) {
				s.m.breakerClose.Inc()
				s.m.breakerOpenNow.Set(s.openBreakers())
				s.record(IncidentBreakerClose, class, name,
					"half-open probe succeeded; breaker closed")
			}
			if len(fellFrom) > 0 {
				s.m.fallbackSuccess.Inc()
				s.record(IncidentPanicFallback, class, name,
					fmt.Sprintf("tier %s rescued the request after %v faulted", name, fellFrom))
			}
			res.FallbackFrom, res.Rerouted = fellFrom, rerouted
			if s.maybeShadow(class, req, tier, res) {
				sp.SetArg("shadow", "sampled")
			}
			sp.End()
			return res, nil
		}
		sp.End()
		if !retryable(err) {
			// A deterministic outcome (trap, compile error, caller's
			// deadline): the tier functioned, so a probe may close the
			// breaker, and the error goes straight back to the caller.
			if !last && s.succeed(key, probe) {
				s.m.breakerClose.Inc()
				s.m.breakerOpenNow.Set(s.openBreakers())
				s.record(IncidentBreakerClose, class, name,
					"half-open probe succeeded; breaker closed")
			}
			return nil, err
		}
		if !last && s.fail(key, s.now(), probe) {
			s.m.breakerOpen.Inc()
			s.m.breakerOpenNow.Set(s.openBreakers())
			s.record(IncidentBreakerOpen, class, name,
				fmt.Sprintf("breaker opened after consecutive %s-tier failures: %v", name, err))
		}
		s.m.fallbackAttempts.Inc()
		fellFrom = append(fellFrom, name)
		if last {
			s.m.fallbackExhausted.Inc()
			s.record(IncidentTierExhausted, class, name,
				fmt.Sprintf("every tier failed; last error: %v", err))
			return nil, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	// Unreachable: the chain always ends with an unconditional last tier.
	return nil, fmt.Errorf("guard: tier chain exhausted without a terminal attempt")
}

// Quarantine force-opens the (class, tier) breaker — the shadow
// verifier's response to a differential mismatch, exported so tests and
// operators can quarantine a suspect pair directly.
func (s *Supervisor) Quarantine(class, tier, reason string) {
	if s.trip(breakerKey{class: class, tier: tier}, s.now()) {
		s.m.breakerOpen.Inc()
	}
	s.m.breakerOpenNow.Set(s.openBreakers())
	s.record(IncidentBreakerOpen, class, tier, "quarantined: "+reason)
	if s.cfg.OnQuarantine != nil {
		s.cfg.OnQuarantine(class, tier)
	}
}

// record appends one incident and counts it.
func (s *Supervisor) record(kind IncidentKind, class, tier, detail string) {
	s.m.incidents.Inc()
	s.log.add(Incident{Time: s.now(), Kind: kind, Class: class, Tier: tier, Detail: detail})
}
