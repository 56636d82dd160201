package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/obs"
)

// The serve-layer memo contract: admission looks each request up once;
// an identical repeat is answered from the kept result (cached: true, a
// cache-hit span, no queue, no fusion or refusion), an identical
// request in flight is joined, and every other request leads one
// execution whose outcome — success, error or admission refusal —
// reaches all of them. no_cache forces an execution of the request's
// own, /metrics surfaces the memo's traffic, oversized bodies are a 413
// with the standard envelope, and a guard quarantine invalidates the
// matching kept results.

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateWorkers makes every worker wait before executing a job until
// release is called. Cleanup releases too, so a failed wait cannot
// wedge the server's teardown on requests parked at the gate.
func gateWorkers(t *testing.T, s *Server) (release func()) {
	s.gate = make(chan struct{})
	release = sync.OnceFunc(func() { close(s.gate) })
	t.Cleanup(release)
	return release
}

// reply is one asynchronous POST /v1/run outcome.
type reply struct {
	code   int
	header http.Header
	resp   *RunResponse
}

// postAsync sends rr on its own goroutine and delivers the reply.
func postAsync(t *testing.T, url string, rr *RunRequest) <-chan reply {
	out := make(chan reply, 1)
	body, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		hr, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			out <- reply{resp: &RunResponse{}}
			return
		}
		defer hr.Body.Close()
		resp := &RunResponse{}
		if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
			t.Errorf("decode (HTTP %d): %v", hr.StatusCode, err)
		}
		out <- reply{code: hr.StatusCode, header: hr.Header, resp: resp}
	}()
	return out
}

func TestServeResultCacheHit(t *testing.T) {
	reg := obs.NewRegistry()
	// ShadowRate 1: every real execution is sampled, so the sample
	// counter doubles as an executions-observed counter. FlightSample 1
	// retains every request for the span assertions.
	_, ts := newTestServer(t, Config{Workers: 2, ShadowRate: 1, FlightSample: 1, Metrics: reg})

	code, _, cold := postWithID(t, ts.URL, "rc-cold", &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("cold: HTTP %d: %+v", code, cold)
	}
	if cold.Cached {
		t.Error("first request claims to be cached")
	}

	code, _, warm := postWithID(t, ts.URL, "rc-warm", &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("warm: HTTP %d: %+v", code, warm)
	}
	if !warm.Cached {
		t.Fatal("identical repeat request was not served from the result cache")
	}
	if warm.Output != cold.Output || warm.Status != cold.Status ||
		warm.Instructions != cold.Instructions || warm.Engine != cold.Engine {
		t.Errorf("cached response diverges from the execution that populated it:\n got: %+v\nwant: %+v", warm, cold)
	}
	if warm.Coalesced {
		t.Error("cache hit marked coalesced; nothing was in flight")
	}
	if warm.Timing == nil || warm.Timing.RunNS != 0 || warm.Timing.CompileNS != 0 {
		t.Errorf("cache hit reports per-phase work it did not do: %+v", warm.Timing)
	}

	// The hit bypassed the queue and the workers: its flight record has
	// a cache-hit span and no queue span.
	var rec obs.RequestRecord
	hr, err := http.Get(ts.URL + "/v1/debug/requests/rc-warm")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&rec); err != nil {
		t.Fatalf("flight record decode (HTTP %d): %v", hr.StatusCode, err)
	}
	spans := map[string]bool{}
	for _, sp := range rec.Spans {
		spans[sp.Name] = true
	}
	if !spans["cache-hit"] {
		t.Errorf("hit's span tree lacks cache-hit: %+v", rec.Spans)
	}
	if spans["queue"] || spans["exec"] {
		t.Errorf("cache hit went through the queue/worker path: %+v", rec.Spans)
	}

	// Shadow verification observes real executions only: the hit must
	// not have advanced the per-class sample counter past the cold run.
	waitFor := reg.Counter("guard.shadow.sampled").Value()
	if waitFor != 1 {
		t.Errorf("guard.shadow.sampled = %d at rate 1 after 1 execution + 1 hit, want 1", waitFor)
	}

	// The cache's traffic is on /metrics.
	var reply MetricsReply
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if err := json.NewDecoder(mr.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.ResultCache == nil {
		t.Fatal("/metrics reply lacks the result_cache section")
	}
	if reply.ResultCache.Hits < 1 || reply.ResultCache.Entries < 1 || reply.ResultCache.Bytes <= 0 {
		t.Errorf("result_cache stats = %+v, want at least one hit and one accounted entry", reply.ResultCache)
	}

	// And on the Prometheus exposition, under the lossless '.' -> '_'
	// mapping.
	pr, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	prom, _ := io.ReadAll(pr.Body)
	for _, name := range []string{"driver_rescache_hits", "driver_rescache_misses", "driver_rescache_bytes"} {
		if !strings.Contains(string(prom), name) {
			t.Errorf("prom exposition lacks %s", name)
		}
	}
}

func TestServeNoCacheBypass(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	if code, resp := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 200 || resp.Cached {
		t.Fatalf("warmup: HTTP %d cached=%v", code, resp.Cached)
	}
	// The entry exists now; no_cache must skip it and execute fresh.
	code, resp := post(t, ts.URL, &RunRequest{Workload: "wc", NoCache: true})
	if code != 200 {
		t.Fatalf("HTTP %d: %+v", code, resp)
	}
	if resp.Cached {
		t.Error("no_cache request was served from the result cache")
	}
	if resp.Timing == nil || resp.Timing.RunNS <= 0 {
		t.Errorf("no_cache request reports no run time; did it really execute? %+v", resp.Timing)
	}
	// And without no_cache the entry is still there.
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 200 || !resp.Cached {
		t.Errorf("after no_cache: HTTP %d cached=%v, want a cache hit", code, resp.Cached)
	}
}

func TestServeBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})

	// A comfortable body passes.
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 200 {
		t.Fatalf("small body: HTTP %d: %+v", code, resp)
	}

	// An over-limit body is a 413 in the standard error envelope, with
	// the request ID echoed like any other rejection.
	big, err := json.Marshal(&RunRequest{Source: strings.Repeat("x", 4096)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(string(big)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "body-limit-1")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 413 {
		t.Fatalf("oversized body: HTTP %d, want 413", hr.StatusCode)
	}
	var resp RunResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("413 body is not the standard envelope: %v", err)
	}
	if !strings.Contains(resp.Error, "512-byte limit") {
		t.Errorf("413 error = %q, want the configured limit named", resp.Error)
	}
	if hr.Header.Get("X-Request-Id") != "body-limit-1" || resp.RequestID != "body-limit-1" {
		t.Errorf("413 did not echo the request ID: header %q, body %q",
			hr.Header.Get("X-Request-Id"), resp.RequestID)
	}
}

// TestServeQuarantineInvalidatesCache: quarantining a (class, tier)
// removes its memoized results — the next identical request re-executes
// (on the rerouted tier) instead of answering from beyond the grave.
func TestServeQuarantineInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"})
	if code != 200 || resp.Engine != emu.EngineAdaptive {
		t.Fatalf("warmup: HTTP %d engine %q: %+v", code, resp.Engine, resp)
	}
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"}); code != 200 || !resp.Cached {
		t.Fatalf("pre-quarantine repeat: HTTP %d cached=%v, want a hit", code, resp.Cached)
	}
	before := s.results.Stats()
	if before.Entries < 1 {
		t.Fatalf("no entries cached before quarantine: %+v", before)
	}

	s.sup.Quarantine("sieve/branchreg", emu.EngineAdaptive, "test quarantine")

	after := s.results.Stats()
	if after.Invalidated <= before.Invalidated {
		t.Fatalf("quarantine invalidated nothing: before %+v, after %+v", before, after)
	}
	// The class is rerouted off the quarantined tier AND its cached
	// results are gone: the next request is a fresh execution.
	code, resp = post(t, ts.URL, &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("post-quarantine: HTTP %d: %+v", code, resp)
	}
	if resp.Cached {
		t.Error("post-quarantine request served from the invalidated cache")
	}
	if !resp.Rerouted || resp.Engine == emu.EngineAdaptive {
		t.Errorf("post-quarantine request not rerouted off the quarantined tier: engine %q rerouted=%v",
			resp.Engine, resp.Rerouted)
	}
}

// TestServeColdRequestOneEntry: one cold request is one memo lookup and
// leaves one kept result.
func TestServeColdRequestOneEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ShadowRate: -1})
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"}); code != 200 {
		t.Fatalf("HTTP %d: %+v", code, resp)
	}
	if st := s.results.Stats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("after one cold request: %+v, want 1 entry, 1 miss, 0 hits", st)
	}
}

// TestServeCachedResponsesArePure: a kept result carries only what the
// request determines, so two servers whose programs have different
// adaptive histories answer a repeat identically.
func TestServeCachedResponsesArePure(t *testing.T) {
	other := "primes please\n"
	cachedReply := func(warm bool) *RunResponse {
		_, ts := newTestServer(t, Config{Workers: 1, ShadowRate: -1})
		if warm {
			// Advance the program's adaptive state without touching the
			// memo entry the comparison reads.
			if code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve", Input: &other, NoCache: true}); code != 200 {
				t.Fatalf("warmup: HTTP %d: %+v", code, resp)
			}
		}
		if code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"}); code != 200 || resp.Fusion == nil {
			t.Fatalf("cold: HTTP %d, want 200 with fusion stats: %+v", code, resp)
		}
		code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"})
		if code != 200 || !resp.Cached {
			t.Fatalf("repeat: HTTP %d cached=%v", code, resp.Cached)
		}
		if resp.Fusion != nil || resp.Refusion != nil {
			t.Errorf("hit carries per-execution stats: fusion %+v refusion %+v", resp.Fusion, resp.Refusion)
		}
		resp.RequestID, resp.Timing = "", nil
		return resp
	}
	fresh, warmed := cachedReply(false), cachedReply(true)
	if !reflect.DeepEqual(fresh, warmed) {
		t.Errorf("cached responses depend on the program's history:\nfresh:  %+v\nwarmed: %+v", fresh, warmed)
	}
}

// TestServeShadowExecutes: the memo sits at admission only, so a shadow
// re-execution always runs its engine — even when an earlier request
// already executed the shadow's (request, engine) pair.
func TestServeShadowExecutes(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, ShadowRate: 1, Metrics: reg})
	shadowOK := reg.Counter("guard.shadow.ok")
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve", Engine: "fast"}); code != 200 || resp.Engine != emu.EngineFast {
		t.Fatalf("fast request: HTTP %d engine %q", code, resp.Engine)
	}
	waitUntil(t, "the fast request's shadow", func() bool { return shadowOK.Value() == 1 })

	fast := obs.Default.Counter("driver.engine.fast")
	fastBefore, hitsBefore := fast.Value(), s.results.Stats().Hits
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"}); code != 200 || resp.Engine != emu.EngineAdaptive {
		t.Fatalf("auto request: HTTP %d engine %q", code, resp.Engine)
	}
	waitUntil(t, "the auto request's fast shadow", func() bool { return shadowOK.Value() == 2 })
	if n := fast.Value() - fastBefore; n != 1 {
		t.Errorf("driver.engine.fast advanced by %d during the shadow, want 1 real fast execution", n)
	}
	if n := s.results.Stats().Hits - hitsBefore; n != 0 {
		t.Errorf("memo hits advanced by %d during the shadow, want 0", n)
	}
}

// TestServeCoalescesErrors: identical requests in flight share one
// execution's error, and the error is not kept.
func TestServeCoalescesErrors(t *testing.T) {
	reg := obs.NewRegistry()
	cache := driver.NewCache()
	s, ts := newTestServer(t, Config{Workers: 1, Shards: 1, Cache: cache, Metrics: reg})
	release := gateWorkers(t, s)
	rr := &RunRequest{Workload: "sieve", StepBudget: 1000}

	first := postAsync(t, ts.URL, rr)
	waitUntil(t, "the first request to lead", func() bool { return s.results.Stats().InFlight == 1 })
	second := postAsync(t, ts.URL, rr)
	waitUntil(t, "the second request to join", func() bool { return reg.Counter("serve.coalesced").Value() == 1 })
	release()
	leader, follower := <-first, <-second
	for _, r := range []reply{leader, follower} {
		if r.code != 422 || r.resp.Trap == nil || r.resp.Trap.Kind != emu.TrapStepBudget {
			t.Errorf("HTTP %d trap %+v, want 422 with a step-budget trap", r.code, r.resp.Trap)
		}
	}
	// The leader waited in the queue (behind the gate); the follower
	// waited on the leader's slot, not in the queue.
	if leader.resp.Timing == nil || leader.resp.Timing.QueueNS <= 0 {
		t.Errorf("leader timing %+v, want its queue wait", leader.resp.Timing)
	}
	if follower.resp.Timing == nil || follower.resp.Timing.QueueNS != 0 {
		t.Errorf("follower timing %+v, want queue_ns 0", follower.resp.Timing)
	}
	if n := cache.Stats().Requests; n != 1 {
		t.Errorf("compile-cache requests = %d, want 1 shared execution", n)
	}
	if st := s.results.Stats(); st.Entries != 0 {
		t.Errorf("an error was kept: %+v", st)
	}
}

// TestServeRefusalReachesWaiters: a request that joined a leader whose
// enqueue failed gets the leader's 429, Retry-After included.
func TestServeRefusalReachesWaiters(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, Shards: 1, QueueDepth: 1, Metrics: reg})
	openGate := gateWorkers(t, s)
	sh := s.shards[0]

	// Occupy the gated worker (see TestServeQueueFull for the depth
	// sentinel) and the one queue slot.
	sh.depth.Set(-1)
	busy := postAsync(t, ts.URL, &RunRequest{Workload: "sieve"})
	waitUntil(t, "the worker to take the first job", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.depth.Value() == 0 && len(sh.queue) == 0
	})
	queued := postAsync(t, ts.URL, &RunRequest{Workload: "wc"})
	waitUntil(t, "the second job to queue", func() bool { return len(sh.queue) == 1 })

	// Holding the shard lock parks the next leader between taking its
	// memo slot and finding the queue full, so its twin joins the slot.
	sh.mu.Lock()
	unlock := sync.OnceFunc(sh.mu.Unlock) // a failed wait must not wedge Drain
	defer unlock()
	leader := postAsync(t, ts.URL, &RunRequest{Workload: "grep"})
	waitUntil(t, "the leader's slot", func() bool { return s.results.Stats().InFlight == 3 })
	waiter := postAsync(t, ts.URL, &RunRequest{Workload: "grep"})
	waitUntil(t, "the waiter to join", func() bool { return reg.Counter("serve.coalesced").Value() == 1 })
	unlock()

	for name, r := range map[string]reply{"leader": <-leader, "waiter": <-waiter} {
		if r.code != 429 || r.header.Get("Retry-After") == "" {
			t.Errorf("%s: HTTP %d Retry-After %q, want 429 with a Retry-After", name, r.code, r.header.Get("Retry-After"))
		}
	}
	if n := reg.Counter("serve.rejected.queue_full").Value(); n != 2 {
		t.Errorf("queue-full counter = %d, want 2", n)
	}
	openGate()
	for _, r := range []reply{<-busy, <-queued} {
		if r.code != 200 {
			t.Errorf("admitted request finished with HTTP %d: %+v", r.code, r.resp)
		}
	}
}

// TestServeNoCacheTwinsRunAlone: identical no_cache requests in flight
// do not share an execution, and neither publishes into the memo.
func TestServeNoCacheTwinsRunAlone(t *testing.T) {
	reg := obs.NewRegistry()
	cache := driver.NewCache()
	s, ts := newTestServer(t, Config{Workers: 1, Shards: 1, Cache: cache, Metrics: reg})
	release := gateWorkers(t, s)
	rr := &RunRequest{Workload: "wc", NoCache: true}

	a, b := postAsync(t, ts.URL, rr), postAsync(t, ts.URL, rr)
	waitUntil(t, "both twins to take slots", func() bool { return s.results.Stats().InFlight == 2 })
	release()
	for _, r := range []reply{<-a, <-b} {
		if r.code != 200 || r.resp.Coalesced || r.resp.Cached {
			t.Errorf("HTTP %d coalesced=%v cached=%v, want a 200 of its own", r.code, r.resp.Coalesced, r.resp.Cached)
		}
	}
	if n := cache.Stats().Requests; n != 2 {
		t.Errorf("compile-cache requests = %d, want 2 executions", n)
	}
	if st := s.results.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("no_cache twins touched the memo: %+v", st)
	}
}
