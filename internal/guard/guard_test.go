package guard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/obs"
)

// fakeClock is an injectable clock for breaker cooldown transitions.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// tierExec builds an ExecFunc that dispatches on the request's engine
// tier: handlers[tier] runs; a missing handler succeeds with a result
// naming the tier.
func tierExec(handlers map[emu.LoopMode]func() (*driver.Result, error)) ExecFunc {
	return func(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
		if h, ok := handlers[req.Loop]; ok {
			return h()
		}
		return &driver.Result{Output: "ok", Engine: tierName(req.Loop)}, nil
	}
}

func panicOn() (*driver.Result, error) { panic("injected engine bug") }

// incidentKinds tallies the supervisor's incident log by kind.
func incidentKinds(s *Supervisor) map[IncidentKind]int {
	out := map[IncidentKind]int{}
	snap, _ := s.Incidents()
	for _, in := range snap {
		out[in.Kind]++
	}
	return out
}

func counter(r *obs.Registry, name string) int64 {
	return r.Counter(name).Value()
}

func TestFallbackRescuesAdaptivePanic(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		Exec:    tierExec(map[emu.LoopMode]func() (*driver.Result, error){emu.LoopAdaptive: panicOn}),
		Metrics: reg,
	})
	defer s.Close()

	out, err := s.Exec(context.Background(), "sieve/branchreg", driver.Request{Loop: emu.LoopAuto})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if out.Engine != emu.EngineFast {
		t.Errorf("Engine = %q, want %q", out.Engine, emu.EngineFast)
	}
	if len(out.FallbackFrom) != 1 || out.FallbackFrom[0] != emu.EngineAdaptive {
		t.Errorf("FallbackFrom = %v, want [adaptive]", out.FallbackFrom)
	}
	if out.Rerouted {
		t.Error("Rerouted = true on a first-try fallback")
	}
	if n := counter(reg, "guard.fallback.success"); n != 1 {
		t.Errorf("guard.fallback.success = %d, want 1", n)
	}
	if kinds := incidentKinds(s); kinds[IncidentPanicFallback] != 1 {
		t.Errorf("incidents = %v, want one panic-fallback", kinds)
	}
}

func TestFallbackExhausted(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		Exec: tierExec(map[emu.LoopMode]func() (*driver.Result, error){
			emu.LoopAdaptive:     panicOn,
			emu.LoopFused:        panicOn,
			emu.LoopFast:         panicOn,
			emu.LoopInstrumented: panicOn,
		}),
		Metrics: reg,
	})
	defer s.Close()

	_, err := s.Exec(context.Background(), "sieve/branchreg", driver.Request{Loop: emu.LoopAuto})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Tier != emu.EngineInstrumented {
		t.Errorf("final PanicError tier = %q, want the last tier", pe.Tier)
	}
	if n := counter(reg, "guard.fallback.exhausted"); n != 1 {
		t.Errorf("guard.fallback.exhausted = %d, want 1", n)
	}
	if kinds := incidentKinds(s); kinds[IncidentTierExhausted] != 1 {
		t.Errorf("incidents = %v, want one tier-exhausted", kinds)
	}
}

// TestTierChains pins the fallback order a request walks when every
// tier panics, and the tier a shadow of each served tier runs on. A
// fused rung under the adaptive tier would re-run the same generated
// loop on the same form, so adaptive falls back (and is shadowed) on
// the fast loop.
func TestTierChains(t *testing.T) {
	cases := []struct {
		loop   emu.LoopMode
		tried  []string
		shadow emu.LoopMode
	}{
		{emu.LoopAuto, []string{emu.EngineAdaptive, emu.EngineFast, emu.EngineInstrumented}, emu.LoopFast},
		{emu.LoopAdaptive, []string{emu.EngineAdaptive, emu.EngineFast, emu.EngineInstrumented}, emu.LoopFast},
		{emu.LoopFused, []string{emu.EngineFused, emu.EngineFast, emu.EngineInstrumented}, emu.LoopFast},
		{emu.LoopFast, []string{emu.EngineFast, emu.EngineInstrumented}, emu.LoopInstrumented},
		{emu.LoopInstrumented, []string{emu.EngineInstrumented}, 0},
	}
	for _, c := range cases {
		var tried []string
		s := New(Config{
			Exec: func(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
				tried = append(tried, tierName(req.Loop))
				panic("injected engine bug")
			},
			Metrics: obs.NewRegistry(),
		})
		if _, err := s.Exec(context.Background(), "sieve/branchreg", driver.Request{Loop: c.loop}); err == nil {
			t.Fatalf("loop %d: every tier panicked, yet Exec succeeded", c.loop)
		}
		s.Close()
		if fmt.Sprint(tried) != fmt.Sprint(c.tried) {
			t.Errorf("loop %d: tiers tried %v, want %v", c.loop, tried, c.tried)
		}
		alt, ok := altTier(c.loop)
		if c.loop == emu.LoopAuto {
			alt, ok = altTier(emu.LoopAdaptive) // the tier that serves it
		}
		if want := c.shadow != 0; ok != want || ok && alt != c.shadow {
			t.Errorf("loop %d: shadow tier %d (%v), want %d", c.loop, alt, ok, c.shadow)
		}
	}
}

// TestBreakerLifecycle drives one (class, tier) breaker through
// closed → open → half-open → closed with a fake clock.
func TestBreakerLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	clock := newFakeClock()
	var adaptiveHealthy atomic.Bool
	exec := tierExec(map[emu.LoopMode]func() (*driver.Result, error){
		emu.LoopAdaptive: func() (*driver.Result, error) {
			if adaptiveHealthy.Load() {
				return &driver.Result{Output: "ok", Engine: emu.EngineAdaptive}, nil
			}
			panic("injected engine bug")
		},
	})
	const cooldown = time.Minute
	s := New(Config{Exec: exec, Threshold: 3, Cooldown: cooldown, Metrics: reg, Now: clock.now})
	defer s.Close()
	ctx := context.Background()
	class := "sieve/branchreg"

	// Three consecutive adaptive panics: every request is rescued by the
	// fast tier, and the third opens the breaker.
	for i := 0; i < 3; i++ {
		out, err := s.Exec(ctx, class, driver.Request{Loop: emu.LoopAuto})
		if err != nil || out.Engine != emu.EngineFast {
			t.Fatalf("request %d: out=%+v err=%v, want fast-tier rescue", i, out, err)
		}
	}
	if n := counter(reg, "guard.breaker.open"); n != 1 {
		t.Fatalf("guard.breaker.open = %d after threshold failures, want 1", n)
	}
	if n := reg.Gauge("guard.breaker.open_now").Value(); n != 1 {
		t.Errorf("guard.breaker.open_now = %d, want 1", n)
	}

	// Open: the adaptive tier is skipped without being attempted.
	out, err := s.Exec(ctx, class, driver.Request{Loop: emu.LoopAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rerouted || out.Engine != emu.EngineFast || len(out.FallbackFrom) != 0 {
		t.Fatalf("open breaker: got %+v, want rerouted fast-tier result with no fallback", out)
	}
	if n := counter(reg, "guard.breaker.reroute"); n != 1 {
		t.Errorf("guard.breaker.reroute = %d, want 1", n)
	}

	// Another class is unaffected: breakers are per (class, tier).
	out, err = s.Exec(ctx, "other/branchreg", driver.Request{Loop: emu.LoopAuto})
	if err != nil || out.Rerouted {
		t.Fatalf("other class: out=%+v err=%v, want un-rerouted", out, err)
	}

	// Cooldown elapses and the engine is healthy again: the next request
	// probes half-open, succeeds, and closes the breaker.
	adaptiveHealthy.Store(true)
	clock.advance(cooldown + time.Second)
	out, err = s.Exec(ctx, class, driver.Request{Loop: emu.LoopAuto})
	if err != nil || out.Engine != emu.EngineAdaptive {
		t.Fatalf("probe: out=%+v err=%v, want adaptive-tier success", out, err)
	}
	if n := counter(reg, "guard.breaker.half_open"); n != 1 {
		t.Errorf("guard.breaker.half_open = %d, want 1", n)
	}
	if n := counter(reg, "guard.breaker.close"); n != 1 {
		t.Errorf("guard.breaker.close = %d, want 1", n)
	}
	if n := reg.Gauge("guard.breaker.open_now").Value(); n != 0 {
		t.Errorf("guard.breaker.open_now = %d after close, want 0", n)
	}
	kinds := incidentKinds(s)
	if kinds[IncidentBreakerOpen] != 1 || kinds[IncidentBreakerClose] != 1 {
		t.Errorf("incidents = %v, want one breaker-open and one breaker-close", kinds)
	}
}

// TestBreakersOnlyForFailingPairs: healthy classes leave no breaker
// behind — a raw-source class is one program, so a breaker per class
// would grow with every distinct program served. A failure creates the
// pair's breaker, and the success that closes it again deletes it.
func TestBreakersOnlyForFailingPairs(t *testing.T) {
	var failing atomic.Bool
	exec := tierExec(map[emu.LoopMode]func() (*driver.Result, error){
		emu.LoopAdaptive: func() (*driver.Result, error) {
			if failing.Load() {
				panic("injected engine bug")
			}
			return &driver.Result{Output: "ok", Engine: emu.EngineAdaptive}, nil
		},
	})
	s := New(Config{Exec: exec, Threshold: 3, Metrics: obs.NewRegistry()})
	defer s.Close()
	ctx := context.Background()
	breakers := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.breakers)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Exec(ctx, fmt.Sprintf("src:%08x/branchreg", i), driver.Request{Loop: emu.LoopAuto}); err != nil {
			t.Fatal(err)
		}
	}
	if n := breakers(); n != 0 {
		t.Fatalf("%d breakers after 100 healthy classes, want 0", n)
	}
	failing.Store(true)
	if out, err := s.Exec(ctx, "src:flaky/branchreg", driver.Request{Loop: emu.LoopAuto}); err != nil || out.Engine != emu.EngineFast {
		t.Fatalf("failing request: out=%+v err=%v, want fast-tier rescue", out, err)
	}
	if n := breakers(); n != 1 {
		t.Fatalf("%d breakers after one failing pair, want 1", n)
	}
	failing.Store(false)
	if _, err := s.Exec(ctx, "src:flaky/branchreg", driver.Request{Loop: emu.LoopAuto}); err != nil {
		t.Fatal(err)
	}
	if n := breakers(); n != 0 {
		t.Fatalf("%d breakers after the failing pair recovered, want 0", n)
	}
}

// TestShadowCountersBounded: the per-class sample counters stay under
// their cap however many distinct classes execute.
func TestShadowCountersBounded(t *testing.T) {
	s := New(Config{Exec: tierExec(nil), ShadowRate: 4, Metrics: obs.NewRegistry()})
	defer s.Close()
	for i := 0; i < shadowClassCap+100; i++ {
		if _, err := s.Exec(context.Background(), fmt.Sprintf("src:%08x/baseline", i), driver.Request{Loop: emu.LoopAuto}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	n := len(s.shadowN)
	s.mu.Unlock()
	if n > shadowClassCap {
		t.Fatalf("%d per-class shadow counters, cap %d", n, shadowClassCap)
	}
}

// TestShadowSamplesFirstExecutions: classes that run once each are
// sampled on a supervisor-wide count of first executions, so traffic in
// which every program is new is verified too, while a repeated class
// keeps its own cadence.
func TestShadowSamplesFirstExecutions(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Exec: tierExec(nil), ShadowRate: 32, Metrics: reg})
	defer s.Close()
	ctx := context.Background()
	class := func(i int) string { return fmt.Sprintf("src:%08x/baseline", i) }
	for i := 0; i < 64; i++ {
		if _, err := s.Exec(ctx, class(i), driver.Request{Loop: emu.LoopAuto}); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter(reg, "guard.shadow.sampled"); n != 2 {
		t.Errorf("guard.shadow.sampled = %d after 64 classes ran once at rate 32, want 2", n)
	}
	// The first class's 32nd execution is due on its own counter; its
	// repeats do not move the first-execution count.
	for i := 1; i < 32; i++ {
		if _, err := s.Exec(ctx, class(0), driver.Request{Loop: emu.LoopAuto}); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter(reg, "guard.shadow.sampled"); n != 3 {
		t.Errorf("guard.shadow.sampled = %d after one class's 32nd execution, want 3", n)
	}
	waitFor(t, "shadow ok", func() bool { return counter(reg, "guard.shadow.ok") == 3 })
}

// TestBreakerProbeFailureReopens: a failed half-open probe restarts the
// cooldown instead of closing.
func TestBreakerProbeFailureReopens(t *testing.T) {
	reg := obs.NewRegistry()
	clock := newFakeClock()
	exec := tierExec(map[emu.LoopMode]func() (*driver.Result, error){emu.LoopAdaptive: panicOn})
	const cooldown = time.Minute
	s := New(Config{Exec: exec, Threshold: 2, Cooldown: cooldown, Metrics: reg, Now: clock.now})
	defer s.Close()
	ctx := context.Background()
	class := "queens/branchreg"

	for i := 0; i < 2; i++ {
		if _, err := s.Exec(ctx, class, driver.Request{Loop: emu.LoopAuto}); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter(reg, "guard.breaker.open"); n != 1 {
		t.Fatalf("guard.breaker.open = %d, want 1", n)
	}

	clock.advance(cooldown + time.Second)
	// The probe panics: breaker reopens with a fresh cooldown.
	if _, err := s.Exec(ctx, class, driver.Request{Loop: emu.LoopAuto}); err != nil {
		t.Fatal(err)
	}
	if n := counter(reg, "guard.breaker.open"); n != 2 {
		t.Errorf("guard.breaker.open = %d after failed probe, want 2", n)
	}
	// Still within the fresh cooldown: skip, not probe.
	out, err := s.Exec(ctx, class, driver.Request{Loop: emu.LoopAuto})
	if err != nil || !out.Rerouted {
		t.Fatalf("post-reopen request: out=%+v err=%v, want rerouted", out, err)
	}
}

// TestPassthroughRequests: fault-plan and profile requests bypass the
// chain — one attempt, Loop untouched, panics surface as *PanicError.
func TestPassthroughRequests(t *testing.T) {
	var calls atomic.Int64
	exec := ExecFunc(func(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
		calls.Add(1)
		if req.Loop != emu.LoopInstrumented {
			t.Errorf("passthrough rewrote Loop to %v", req.Loop)
		}
		panic("fault-plan crash")
	})
	s := New(Config{Exec: exec, Metrics: obs.NewRegistry()})
	defer s.Close()

	req := driver.Request{Loop: emu.LoopInstrumented, Faults: &emu.FaultPlan{}}
	_, err := s.Exec(context.Background(), "sieve/branchreg", req)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("exec called %d times, want 1 (no fallback for passthrough)", n)
	}
}

// TestNonRetryableErrorPassesThrough: a deterministic error (compile
// failure, trap) returns immediately without trying lower tiers.
func TestNonRetryableErrorPassesThrough(t *testing.T) {
	sentinel := errors.New("compile failed")
	var calls atomic.Int64
	exec := ExecFunc(func(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
		calls.Add(1)
		return nil, sentinel
	})
	s := New(Config{Exec: exec, Metrics: obs.NewRegistry()})
	defer s.Close()

	_, err := s.Exec(context.Background(), "sieve/branchreg", driver.Request{Loop: emu.LoopAuto})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sentinel unchanged", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("exec called %d times, want 1 (deterministic errors do not fall back)", n)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShadowMismatchQuarantines: a shadow re-execution that diverges
// records an incident and immediately quarantines the served tier.
func TestShadowMismatchQuarantines(t *testing.T) {
	reg := obs.NewRegistry()
	// The adaptive tier answers "AA", every other tier "BB": every shadow
	// of an adaptive response mismatches.
	exec := ExecFunc(func(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
		if req.Loop == emu.LoopAdaptive {
			return &driver.Result{Output: "AA", Engine: emu.EngineAdaptive}, nil
		}
		return &driver.Result{Output: "BB", Engine: tierName(req.Loop)}, nil
	})
	s := New(Config{Exec: exec, ShadowRate: 1, Metrics: reg})
	defer s.Close()
	ctx := context.Background()
	class := "wordcount/branchreg"

	out, err := s.Exec(ctx, class, driver.Request{Loop: emu.LoopAuto})
	if err != nil || out.Engine != emu.EngineAdaptive {
		t.Fatalf("primary: out=%+v err=%v, want adaptive success", out, err)
	}
	waitFor(t, "shadow mismatch", func() bool { return counter(reg, "guard.shadow.mismatch") >= 1 })

	kinds := incidentKinds(s)
	if kinds[IncidentShadowMismatch] < 1 || kinds[IncidentBreakerOpen] < 1 {
		t.Fatalf("incidents = %v, want shadow-mismatch plus quarantine breaker-open", kinds)
	}
	// The quarantine reroutes the class off the adaptive tier at once.
	out, err = s.Exec(ctx, class, driver.Request{Loop: emu.LoopAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rerouted || out.Engine != emu.EngineFast {
		t.Fatalf("post-quarantine: got %+v, want rerouted fast-tier result", out)
	}
}

// TestShadowAgreement: matching results count guard.shadow.ok and leave
// the breakers alone.
func TestShadowAgreement(t *testing.T) {
	reg := obs.NewRegistry()
	exec := ExecFunc(func(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
		return &driver.Result{Output: "same", Status: 7, Engine: tierName(req.Loop)}, nil
	})
	s := New(Config{Exec: exec, ShadowRate: 2, Metrics: reg})
	defer s.Close()
	ctx := context.Background()

	// Rate 2: the second execution of the class is sampled, not the first.
	for i := 0; i < 4; i++ {
		if _, err := s.Exec(ctx, "sieve/branchreg", driver.Request{Loop: emu.LoopAuto}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "shadow ok", func() bool { return counter(reg, "guard.shadow.ok") >= 2 })
	if n := counter(reg, "guard.shadow.sampled"); n != 2 {
		t.Errorf("guard.shadow.sampled = %d after 4 requests at rate 2, want 2", n)
	}
	if n := counter(reg, "guard.shadow.mismatch"); n != 0 {
		t.Errorf("guard.shadow.mismatch = %d, want 0", n)
	}
	if _, total := s.Incidents(); total != 0 {
		t.Errorf("incidents recorded = %d, want 0", total)
	}
}

// TestIncidentRingBounded: the ring retains the newest IncidentCap
// incidents, with monotonically increasing IDs and an accurate total.
func TestIncidentRingBounded(t *testing.T) {
	s := New(Config{
		Exec:        tierExec(nil),
		IncidentCap: 4,
		Metrics:     obs.NewRegistry(),
	})
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.record(IncidentBreakerOpen, fmt.Sprintf("c%d/branchreg", i), emu.EngineFused, "test")
	}
	snap, total := s.Incidents()
	if total != 10 {
		t.Errorf("total = %d, want 10", total)
	}
	if len(snap) != 4 {
		t.Fatalf("retained = %d, want 4", len(snap))
	}
	for i, in := range snap {
		if want := int64(10 - i); in.ID != want {
			t.Errorf("snapshot[%d].ID = %d, want %d (newest first)", i, in.ID, want)
		}
	}
}

// TestSupervisorConcurrentChaos hammers one supervisor from many
// goroutines while the adaptive tier panics intermittently — run under
// -race, every request must still be rescued.
func TestSupervisorConcurrentChaos(t *testing.T) {
	reg := obs.NewRegistry()
	var n atomic.Int64
	exec := ExecFunc(func(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
		if req.Loop == emu.LoopAdaptive && n.Add(1)%3 == 0 {
			panic("intermittent engine bug")
		}
		return &driver.Result{Output: "ok:" + class, Engine: tierName(req.Loop)}, nil
	})
	s := New(Config{Exec: exec, Threshold: 2, Cooldown: time.Millisecond, ShadowRate: 4, Metrics: reg})
	defer s.Close()

	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		class := fmt.Sprintf("class%d/branchreg", g%4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				out, err := s.Exec(context.Background(), class, driver.Request{Loop: emu.LoopAuto})
				if err != nil {
					errs <- err
					return
				}
				if out.Output != "ok:"+class {
					errs <- fmt.Errorf("wrong output %q for %s", out.Output, class)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQuarantineNotifiesHook: OnQuarantine fires with the quarantined
// (class, tier) coordinates — the contract brserve's result-cache
// invalidation hangs off.
func TestQuarantineNotifiesHook(t *testing.T) {
	type quarantined struct{ class, tier string }
	got := make(chan quarantined, 1)
	s := New(Config{
		Exec:    tierExec(nil),
		Metrics: obs.NewRegistry(),
		OnQuarantine: func(class, tier string) {
			got <- quarantined{class, tier}
		},
	})
	defer s.Close()

	s.Quarantine("sieve/branchreg", emu.EngineAdaptive, "test quarantine")
	select {
	case q := <-got:
		if q.class != "sieve/branchreg" || q.tier != emu.EngineAdaptive {
			t.Errorf("hook got (%q, %q), want (sieve/branchreg, adaptive)", q.class, q.tier)
		}
	default:
		t.Error("Quarantine did not invoke OnQuarantine")
	}
}
