package guard

import "time"

// The circuit breaker is per (workload class, engine tier). Its job is
// containment: once a tier has proven unreliable for a class, stop
// feeding it requests (each failed attempt costs a wasted execution and
// a recovered panic) and pin the class to the next tier down until a
// half-open probe shows the tier healthy again.
//
//	closed ──threshold consecutive failures──► open
//	open ──cooldown elapsed, next request──► half-open (that request probes)
//	half-open ──probe succeeds──► closed
//	half-open ──probe fails──► open (fresh cooldown)
//
// A shadow-verification mismatch skips the counting and trips the
// breaker straight to open (quarantine): a wrong answer is categorically
// worse than a crash, because nothing downstream would have noticed.

type breakerKey struct {
	class string
	tier  string
}

type breakerState int

const (
	stClosed breakerState = iota
	stOpen
	stHalfOpen
)

// breaker is one (class, tier) circuit. A pair with no breaker reads as
// closed with no failures: the supervisor creates a breaker on the
// pair's first failure and deletes it once it closes again, so its map
// holds only circuits with recent trouble rather than one per workload
// class ever served (a raw-source class is one program). Every field is
// guarded by Supervisor.mu; the supervisor owns transition metrics and
// incident recording, keyed off the boolean "a transition happened"
// returns of the methods below.
type breaker struct {
	state   breakerState
	fails   int       // consecutive failures while closed
	until   time.Time // when an open breaker may probe
	probing bool      // a half-open probe is in flight
}

type admitDecision int

const (
	admitYes admitDecision = iota
	admitSkip
	admitProbe
)

// admit decides what this request may do with the pair's tier: execute
// normally (closed), skip to the next tier (open, or another probe
// already in flight), or execute as the half-open probe.
func (s *Supervisor) admit(key breakerKey, now time.Time) admitDecision {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[key]
	if b == nil {
		return admitYes
	}
	switch b.state {
	case stClosed:
		return admitYes
	case stOpen:
		if now.Before(b.until) {
			return admitSkip
		}
		b.state = stHalfOpen
		b.probing = true
		return admitProbe
	default: // stHalfOpen
		if b.probing {
			return admitSkip
		}
		b.probing = true
		return admitProbe
	}
}

// succeed records a healthy execution. It returns true when this was
// the half-open probe that closed the breaker. A breaker that is closed
// afterwards has nothing left to remember and is deleted.
func (s *Supervisor) succeed(key breakerKey, probe bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[key]
	if b == nil {
		return false
	}
	if probe {
		b.probing = false
	}
	closed := false
	if b.state == stHalfOpen && probe {
		b.state = stClosed
		closed = true
	}
	if b.state == stClosed {
		delete(s.breakers, key)
	}
	return closed
}

// breakerLocked returns the pair's breaker, creating a closed one if
// there is none; s.mu must be held.
func (s *Supervisor) breakerLocked(key breakerKey) *breaker {
	b := s.breakers[key]
	if b == nil {
		b = &breaker{}
		s.breakers[key] = b
	}
	return b
}

// fail records a tier fault. It returns true when the breaker
// transitioned to open — either the threshold'th consecutive failure
// while closed, or a failed half-open probe.
func (s *Supervisor) fail(key breakerKey, now time.Time, probe bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakerLocked(key)
	if probe {
		b.probing = false
	}
	switch b.state {
	case stHalfOpen:
		if !probe {
			return false // a stale pre-transition failure; the probe decides
		}
		b.state = stOpen
		b.until = now.Add(s.cfg.Cooldown)
		return true
	case stClosed:
		b.fails++
		if b.fails < s.cfg.Threshold {
			return false
		}
		b.state = stOpen
		b.until = now.Add(s.cfg.Cooldown)
		return true
	default: // stOpen: concurrent failures after the transition
		return false
	}
}

// trip force-opens the pair's breaker (shadow-mismatch quarantine). It
// returns true when the breaker was not already open.
func (s *Supervisor) trip(key breakerKey, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakerLocked(key)
	was := b.state
	b.state = stOpen
	b.until = now.Add(s.cfg.Cooldown)
	b.probing = false
	b.fails = 0
	return was != stOpen
}

// openBreakers counts breakers not currently closed (the open_now gauge).
func (s *Supervisor) openBreakers() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, b := range s.breakers {
		if b.state != stClosed {
			n++
		}
	}
	return n
}
