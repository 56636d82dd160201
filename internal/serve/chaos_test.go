package serve

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"branchreg/internal/emu"
	"branchreg/internal/guard"
	"branchreg/internal/obs"
)

func TestParseChaosPlan(t *testing.T) {
	p, err := ParseChaosPlan("seed=7,target=sieve,panic-every=1,panic-max=8,latency-every=50,latency=5ms,stall-every=3,stall=2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := ChaosPlan{
		Seed: 7, Target: "sieve", PanicEvery: 1, PanicMax: 8,
		LatencyEvery: 50, Latency: 5 * time.Millisecond,
		StallEvery: 3, Stall: 2 * time.Millisecond,
	}
	if *p != want {
		t.Errorf("parsed %+v, want %+v", *p, want)
	}
	if p, err := ParseChaosPlan("  "); p != nil || err != nil {
		t.Errorf("blank plan: got %v, %v, want nil, nil", p, err)
	}
	for _, bad := range []string{
		"panic-every",    // no value
		"panics-every=1", // unknown key
		"panic-every=x",  // not a number
		"panic-every=-1", // negative interval
		"latency=5",      // missing duration unit
	} {
		if _, err := ParseChaosPlan(bad); err == nil {
			t.Errorf("ParseChaosPlan(%q) accepted, want error", bad)
		}
	}
}

// TestServeChaosSupervision walks the full supervised lifecycle through
// the HTTP surface with a deterministic chaos plan: three injected
// adaptive-engine panics, each rescued by the fast loop; the second
// opens the sieve/branchreg breaker; the third defeats the first
// half-open probe; the (exhausted) plan lets the second probe close the
// breaker. Every response is a byte-correct 200 throughout.
func TestServeChaosSupervision(t *testing.T) {
	reg := obs.NewRegistry()
	// Generous relative to per-request latency under -race: the
	// open-breaker request below must land before the cooldown expires,
	// and the rescue before it executes sieve on the fast tier.
	const cooldown = 5 * time.Second
	_, ts := newTestServer(t, Config{
		Workers:          2,
		Metrics:          reg,
		BreakerThreshold: 2,
		BreakerCooldown:  cooldown,
		ShadowRate:       -1, // keep the request schedule fully deterministic
		Chaos:            &ChaosPlan{Target: "sieve", PanicEvery: 1, PanicMax: 3},
	})

	// The uninjected answer, from a class chaos does not target.
	code, clean := post(t, ts.URL, &RunRequest{Workload: "wc"})
	if code != 200 {
		t.Fatalf("control request: HTTP %d: %s", code, clean.Error)
	}
	code, want := post(t, ts.URL, &RunRequest{Workload: "sieve", Engine: "fast"})
	if code != 200 {
		t.Fatalf("reference request: HTTP %d: %s", code, want.Error)
	}

	run := func(step string) *RunResponse {
		t.Helper()
		code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"})
		if code != 200 {
			t.Fatalf("%s: HTTP %d: %s", step, code, resp.Error)
		}
		if resp.Output != want.Output || resp.Status != want.Status {
			t.Fatalf("%s: output diverged under chaos: %q/%d vs %q/%d",
				step, resp.Output, resp.Status, want.Output, want.Status)
		}
		return resp
	}

	// Panics 1 and 2: rescued by the fast tier; the second opens the breaker.
	for i, step := range []string{"first injected panic", "second injected panic"} {
		resp := run(step)
		if resp.Engine != emu.EngineFast || len(resp.FallbackFrom) != 1 || resp.FallbackFrom[0] != emu.EngineAdaptive {
			t.Fatalf("%s: engine=%q fallback_from=%v, want fast rescue from adaptive", step, resp.Engine, resp.FallbackFrom)
		}
		if resp.Rerouted {
			t.Fatalf("%s: rerouted before the breaker opened", step)
		}
		wantOpen := int64(i) // breaker opens on the second failure
		if n := reg.Counter("guard.breaker.open").Value(); n != wantOpen {
			t.Fatalf("%s: guard.breaker.open = %d, want %d", step, n, wantOpen)
		}
	}

	// Open breaker: the adaptive tier is skipped, not attempted (no panic).
	resp := run("request under open breaker")
	if !resp.Rerouted || resp.Engine != emu.EngineFast || len(resp.FallbackFrom) != 0 {
		t.Fatalf("open breaker: rerouted=%v engine=%q fallback_from=%v, want clean reroute to fast",
			resp.Rerouted, resp.Engine, resp.FallbackFrom)
	}

	// First half-open probe eats the third (last) injected panic and reopens.
	time.Sleep(cooldown + 100*time.Millisecond)
	resp = run("failed half-open probe")
	if len(resp.FallbackFrom) != 1 || resp.FallbackFrom[0] != emu.EngineAdaptive {
		t.Fatalf("failed probe: fallback_from=%v, want [adaptive]", resp.FallbackFrom)
	}
	if n := reg.Counter("guard.breaker.open").Value(); n != 2 {
		t.Fatalf("guard.breaker.open = %d after failed probe, want 2", n)
	}

	// The chaos budget is spent: the next probe succeeds and closes.
	time.Sleep(cooldown + 100*time.Millisecond)
	resp = run("closing half-open probe")
	if resp.Engine != emu.EngineAdaptive || len(resp.FallbackFrom) != 0 {
		t.Fatalf("closing probe: engine=%q fallback_from=%v, want clean adaptive success", resp.Engine, resp.FallbackFrom)
	}
	if n := reg.Counter("guard.breaker.close").Value(); n != 1 {
		t.Fatalf("guard.breaker.close = %d, want 1", n)
	}
	if n := reg.Counter("serve.chaos.panics").Value(); n != 3 {
		t.Errorf("serve.chaos.panics = %d, want exactly the PanicMax budget 3", n)
	}

	// Steady state again: adaptive serves without supervision artifacts.
	resp = run("steady state after close")
	if resp.Engine != emu.EngineAdaptive || resp.Rerouted || len(resp.FallbackFrom) != 0 {
		t.Fatalf("steady state: %+v, want plain adaptive response", resp)
	}

	// The incident log tells the same story over HTTP.
	hr, err := http.Get(ts.URL + "/v1/incidents")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var inc IncidentsReply
	if err := json.NewDecoder(hr.Body).Decode(&inc); err != nil {
		t.Fatal(err)
	}
	byKind := map[guard.IncidentKind]int{}
	for _, in := range inc.Incidents {
		byKind[in.Kind]++
		if in.Class != "sieve/branchreg" {
			t.Errorf("incident %d: class %q, want sieve/branchreg", in.ID, in.Class)
		}
	}
	if byKind[guard.IncidentPanicFallback] != 3 || byKind[guard.IncidentBreakerOpen] != 2 || byKind[guard.IncidentBreakerClose] != 1 {
		t.Errorf("incidents by kind = %v, want 3 panic-fallback, 2 breaker-open, 1 breaker-close", byKind)
	}
	if byKind[guard.IncidentShadowMismatch] != 0 {
		t.Errorf("%d shadow mismatches under chaos — engines diverged", byKind[guard.IncidentShadowMismatch])
	}
	if inc.Total != int64(len(inc.Incidents)) {
		t.Errorf("total = %d with %d retained: nothing should have been evicted", inc.Total, len(inc.Incidents))
	}
}

// TestServeShadowVerification: with ShadowRate 1 every successful
// request is re-executed on the alternate engine; agreeing engines
// leave no incidents behind.
func TestServeShadowVerification(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 2, Metrics: reg, ShadowRate: 1})

	code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("HTTP %d: %s", code, resp.Error)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("guard.shadow.ok").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("shadow verification never completed: sampled=%d ok=%d err=%d",
				reg.Counter("guard.shadow.sampled").Value(),
				reg.Counter("guard.shadow.ok").Value(),
				reg.Counter("guard.shadow.error").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := reg.Counter("guard.shadow.mismatch").Value(); n != 0 {
		snap, _ := s.sup.Incidents()
		t.Fatalf("shadow mismatch between real engines (%d): %+v", n, snap)
	}
}
