package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/obs"
	"branchreg/internal/workloads"
)

// newTestServer builds a server on a private metrics registry (so
// counter assertions are deterministic under `go test ./...`) and an
// httptest front end, tearing both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// post sends one RunRequest and decodes the reply.
func post(t *testing.T, url string, rr *RunRequest) (int, *RunResponse) {
	t.Helper()
	body, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp RunResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decode (HTTP %d): %v", hr.StatusCode, err)
	}
	return hr.StatusCode, &resp
}

// TestServeTable drives the request-shaped cases through one server:
// happy path on both machines, bad input variants, a compile error, a
// runtime trap, and the step-budget 4xx (explicit and tenant-clamped).
func TestServeTable(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:       4,
		TenantBudgets: map[string]int64{"small": 10_000},
	})

	w, _ := workloads.ByName("sieve")
	want, err := driver.Exec(context.Background(), driver.Request{
		Source: w.FullSource(), Kind: isa.BranchReg, Input: w.Input,
		Options: driver.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		req      RunRequest
		code     int
		check    func(t *testing.T, resp *RunResponse)
		errLike  string
		trapKind emu.TrapKind
	}{
		{
			name: "happy-workload-brm",
			req:  RunRequest{Workload: "sieve"},
			code: 200,
			check: func(t *testing.T, resp *RunResponse) {
				if resp.Output != want.Output || resp.Status != want.Status {
					t.Errorf("served output diverges from driver.Exec: %q/%d vs %q/%d",
						resp.Output, resp.Status, want.Output, want.Status)
				}
				if resp.Machine != "branchreg" || resp.Engine != emu.EngineAdaptive {
					t.Errorf("machine/engine = %q/%q", resp.Machine, resp.Engine)
				}
				// Sieve runs past its first context poll, so even a cold
				// first request switches to the fused form mid-run.
				if resp.Refusion == nil || !resp.Refusion.Promoted {
					t.Errorf("adaptive run did not promote: %+v", resp.Refusion)
				}
				if resp.Fusion == nil || resp.Fusion.Blocks == 0 {
					t.Errorf("promoted run reported no fusion stats: %+v", resp.Fusion)
				}
				if resp.Instructions != want.Stats.Instructions {
					t.Errorf("instructions = %d, want %d", resp.Instructions, want.Stats.Instructions)
				}
				if resp.Timing == nil || resp.Timing.RunNS <= 0 || resp.Timing.TotalNS <= 0 {
					t.Errorf("timing not filled: %+v", resp.Timing)
				}
			},
		},
		{
			name: "happy-source-baseline",
			req: RunRequest{
				Source:  "int main(void) { return 41 + 1; }",
				Machine: "baseline",
				Engine:  "step",
			},
			code: 200,
			check: func(t *testing.T, resp *RunResponse) {
				if resp.Status != 42 || resp.Machine != "baseline" || resp.Engine != emu.EngineInstrumented {
					t.Errorf("got status %d machine %q engine %q", resp.Status, resp.Machine, resp.Engine)
				}
			},
		},
		{
			name:    "compile-error",
			req:     RunRequest{Source: "int main(void) { return undeclared; }"},
			code:    400,
			errLike: "undeclared",
		},
		{
			name:    "nesting-limit",
			req:     RunRequest{Source: "int main(void) { return " + strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000) + "; }"},
			code:    400,
			errLike: "1:524: nesting exceeds 1000 levels",
		},
		{
			name:    "empty-request",
			req:     RunRequest{},
			code:    400,
			errLike: "source or workload",
		},
		{
			name:    "both-source-and-workload",
			req:     RunRequest{Source: "int main(void){return 0;}", Workload: "sieve"},
			code:    400,
			errLike: "mutually exclusive",
		},
		{
			name:    "unknown-workload",
			req:     RunRequest{Workload: "doom"},
			code:    400,
			errLike: "unknown workload",
		},
		{
			name:    "unknown-machine",
			req:     RunRequest{Workload: "sieve", Machine: "vax"},
			code:    400,
			errLike: "unknown machine",
		},
		{
			name:    "bad-options",
			req:     RunRequest{Workload: "sieve", Options: &OptionsSpec{BranchRegs: intp(99)}},
			code:    400,
			errLike: "BranchRegs",
		},
		{
			name:     "runtime-trap-is-data",
			req:      RunRequest{Source: "int main(void) { int z = 0; return 7 / z; }"},
			code:     200,
			trapKind: emu.TrapArithmetic,
		},
		{
			name:     "explicit-step-budget-4xx",
			req:      RunRequest{Workload: "sieve", StepBudget: 1000},
			code:     422,
			trapKind: emu.TrapStepBudget,
			check: func(t *testing.T, resp *RunResponse) {
				if resp.Trap.Limit != 1000 {
					t.Errorf("trap limit = %d, want 1000", resp.Trap.Limit)
				}
			},
		},
		{
			name:     "tenant-budget-clamped-4xx",
			req:      RunRequest{Workload: "sieve", Tenant: "small"},
			code:     422,
			trapKind: emu.TrapStepBudget,
			check: func(t *testing.T, resp *RunResponse) {
				if resp.Trap.Limit != 10_000 {
					t.Errorf("trap limit = %d, want the tenant cap 10000", resp.Trap.Limit)
				}
			},
		},
		{
			name: "tenant-budget-allows-small-runs",
			req:  RunRequest{Source: "int main(void) { return 3; }", Tenant: "small"},
			code: 200,
			check: func(t *testing.T, resp *RunResponse) {
				if resp.Status != 3 {
					t.Errorf("status = %d, want 3", resp.Status)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, resp := post(t, ts.URL, &tc.req)
			if code != tc.code {
				t.Fatalf("HTTP %d, want %d (resp %+v)", code, tc.code, resp)
			}
			if tc.errLike != "" && !strings.Contains(resp.Error, tc.errLike) {
				t.Errorf("error %q does not mention %q", resp.Error, tc.errLike)
			}
			if tc.trapKind != emu.TrapNone {
				if resp.Trap == nil || resp.Trap.Kind != tc.trapKind {
					t.Fatalf("trap = %+v, want kind %v", resp.Trap, tc.trapKind)
				}
			}
			if tc.check != nil {
				tc.check(t, resp)
			}
		})
	}
}

func intp(v int) *int { return &v }

// TestServeQueueFull pins down the backpressure contract: with one
// gated execution slot and room for one waiting leader, the third
// distinct request gets a 429 with Retry-After, and the first two still
// finish once the slot is released.
func TestServeQueueFull(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Metrics: reg})
	s.gate = make(chan struct{})

	type reply struct {
		code int
		resp *RunResponse
	}
	replies := make(chan reply, 2)
	fire := func(workload string) {
		go func() {
			body, _ := json.Marshal(&RunRequest{Workload: workload})
			hr, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				replies <- reply{}
				return
			}
			defer hr.Body.Close()
			var resp RunResponse
			json.NewDecoder(hr.Body).Decode(&resp)
			replies <- reply{code: hr.StatusCode, resp: &resp}
		}()
	}
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// First request: takes the one execution slot, then blocks on the
	// gate; nobody waits, but the slot is busy.
	fire("sieve")
	waitFor("the first leader to take the slot", func() bool {
		return s.results.Stats().InFlight == 1 && len(s.slots) == 1 && s.waiting.Load() == 0
	})
	// Second request waits for the slot, filling the queue.
	fire("wc")
	waitFor("the second leader to wait", func() bool { return s.waiting.Load() == 1 })
	if n := reg.Gauge("serve.queue.depth.total").Value(); n != 1 {
		t.Errorf("serve.queue.depth.total = %d with one waiting leader, want 1", n)
	}
	// Third distinct request finds the queue full.
	code, resp := post(t, ts.URL, &RunRequest{Workload: "grep"})
	if code != 429 {
		t.Fatalf("third request: HTTP %d, want 429 (resp %+v)", code, resp)
	}
	if n := reg.Counter("serve.rejected.queue_full").Value(); n != 1 {
		t.Errorf("queue-full counter = %d, want 1", n)
	}

	// Release the slot: both admitted leaders must complete cleanly.
	close(s.gate)
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.code != 200 {
			t.Errorf("admitted request finished with HTTP %d: %+v", r.code, r.resp)
		}
	}
}

// TestRetryAfterHint pins the load-scaled backpressure hint: waiting
// leaders × EWMA job duration across the Workers slots, clamped to
// [1, 30] whole seconds, with the constant 1 before any sample exists.
func TestRetryAfterHint(t *testing.T) {
	s := &Server{cfg: Config{Workers: 2}}
	if got := s.retryAfterHint(8); got != "1" {
		t.Errorf("hint with no samples = %q, want 1", got)
	}
	s.ewmaNS.Store(int64(500 * time.Millisecond))
	// 8 waiting × 0.5s / 2 slots = 2s to drain.
	if got := s.retryAfterHint(8); got != "2" {
		t.Errorf("hint(depth 8, ewma 500ms, 2 workers) = %q, want 2", got)
	}
	// Sub-second drain still answers at least 1.
	if got := s.retryAfterHint(1); got != "1" {
		t.Errorf("hint(depth 1) = %q, want 1", got)
	}
	// A pathological backlog is clamped, not reported verbatim.
	s.ewmaNS.Store(int64(20 * time.Second))
	if got := s.retryAfterHint(64); got != "30" {
		t.Errorf("hint(huge backlog) = %q, want the 30s clamp", got)
	}
}

// TestObserveJobDuration: first sample seeds the EWMA, later samples
// move it by 1/8 of the difference.
func TestObserveJobDuration(t *testing.T) {
	s := &Server{}
	s.observeJobDuration(800)
	if got := s.ewmaNS.Load(); got != 800 {
		t.Fatalf("seed sample: ewma = %d, want 800", got)
	}
	s.observeJobDuration(1600)
	if got := s.ewmaNS.Load(); got != 900 {
		t.Fatalf("second sample: ewma = %d, want 900 (800 + (1600-800)/8)", got)
	}
}

// TestServeCoalescing pins down the duplicate-suppression contract:
// two identical requests in flight share one execution (one cache miss,
// one driver run), and exactly one response is marked coalesced.
func TestServeCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	cache := driver.NewCache()
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Cache: cache, Metrics: reg})
	s.gate = make(chan struct{})

	var wg sync.WaitGroup
	codes := make([]int, 2)
	resps := make([]*RunResponse, 2)
	fire := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(&RunRequest{Workload: "puzzle"})
			hr, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer hr.Body.Close()
			resps[i] = &RunResponse{}
			json.NewDecoder(hr.Body).Decode(resps[i])
			codes[i] = hr.StatusCode
		}()
	}
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}

	fire(0)
	waitFor("first request to lead its memo slot", func() bool {
		return s.results.Stats().InFlight == 1
	})
	fire(1)
	waitFor("second request to coalesce", func() bool {
		return reg.Counter("serve.coalesced").Value() == 1
	})
	close(s.gate)
	wg.Wait()

	if codes[0] != 200 || codes[1] != 200 {
		t.Fatalf("codes = %v, want two 200s", codes)
	}
	if resps[0].Output == "" || resps[0].Output != resps[1].Output {
		t.Fatalf("coalesced outputs diverge: %q vs %q", resps[0].Output, resps[1].Output)
	}
	if resps[0].Coalesced == resps[1].Coalesced {
		t.Errorf("exactly one response must be marked coalesced: %v / %v",
			resps[0].Coalesced, resps[1].Coalesced)
	}
	stats := cache.Stats()
	if stats.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (one shared compile)", stats.Misses)
	}
	// The coalescing happened at the admission layer, not the compile
	// cache: one execution total, so the cache saw exactly one request.
	if stats.Requests != 1 {
		t.Errorf("cache requests = %d, want 1 (one shared execution)", stats.Requests)
	}
}

// TestServeFingerprintSeparation: requests that differ in a
// result-affecting field never coalesce even when racing (the satellite
// contract on Request.Fingerprint, exercised through the server).
func TestServeFingerprintSeparation(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Metrics: reg})
	s.gate = make(chan struct{})

	var wg sync.WaitGroup
	reqs := []RunRequest{
		{Workload: "sieve"},
		{Workload: "sieve", Engine: "fast"},          // Loop differs
		{Workload: "sieve", StepBudget: 999_999_999}, // budget differs
	}
	codes := make([]int, len(reqs))
	for i := range reqs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(&reqs[i])
			hr, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io := &RunResponse{}
			json.NewDecoder(hr.Body).Decode(io)
			hr.Body.Close()
			codes[i] = hr.StatusCode
		}()
	}
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// All three must lead memo slots of their own, with zero
	// coalescing.
	waitFor("three distinct slots in flight", func() bool {
		return s.results.Stats().InFlight == 3
	})
	if n := reg.Counter("serve.coalesced").Value(); n != 0 {
		t.Errorf("coalesced counter = %d, want 0", n)
	}
	close(s.gate)
	wg.Wait()
	for i, code := range codes {
		if code != 200 {
			t.Errorf("request %d: HTTP %d, want 200", i, code)
		}
	}
}

// TestServeDrain: draining flips /healthz to 503, rejects new runs with
// 503, and Drain returns once admitted work is done.
func TestServeDrain(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, Metrics: reg})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, _ := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 200 {
		t.Fatalf("pre-drain run: HTTP %d", code)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("pre-drain healthz: HTTP %d", hr.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil { // second drain is a no-op
		t.Fatal(err)
	}

	if code, resp := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 503 {
		t.Fatalf("post-drain run: HTTP %d (%+v), want 503", code, resp)
	}
	hr, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 503 {
		t.Fatalf("post-drain healthz: HTTP %d, want 503", hr.StatusCode)
	}
}

// TestServeDrainFinishesAdmittedLeaders: Drain refuses new requests at
// once but returns only after every admitted leader, the executing one
// and the one waiting for its slot, has answered.
func TestServeDrainFinishesAdmittedLeaders(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close) // after gateLeaders' release, which runs first
	release := gateLeaders(t, s)

	executing := postAsync(t, ts.URL, &RunRequest{Workload: "sieve"})
	waitUntil(t, "the first leader's memo slot", func() bool { return s.results.Stats().InFlight == 1 })
	waiting := postAsync(t, ts.URL, &RunRequest{Workload: "wc"})
	waitUntil(t, "the second leader to wait", func() bool {
		return s.results.Stats().InFlight == 2 && reg.Gauge("serve.queue.depth.total").Value() == 1
	})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitUntil(t, "the drain to start", s.draining.Load)
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "grep"}); code != 503 {
		t.Errorf("request after Drain started: HTTP %d (%+v), want 503", code, resp)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) before its admitted leaders answered", err)
	default:
	}
	release()
	for name, r := range map[string]reply{"executing": <-executing, "waiting": <-waiting} {
		if r.code != 200 || r.resp.Output == "" {
			t.Errorf("%s leader: HTTP %d output %q, want a 200 with output", name, r.code, r.resp.Output)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeMetricsEndpoint: /metrics reports the obs snapshot and cache
// counters after traffic.
func TestServeMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 2, Metrics: reg})
	if code, _ := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 200 {
		t.Fatalf("run: HTTP %d", code)
	}
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var mr MetricsReply
	if err := json.NewDecoder(hr.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", mr.Cache.Misses)
	}
	if mr.Metrics.Counters["serve.requests"] != 1 || mr.Metrics.Counters["serve.ok"] != 1 {
		t.Errorf("serve counters not recorded: %+v", mr.Metrics.Counters)
	}
	if h, ok := mr.Metrics.Histograms["serve.total_ns"]; !ok || h.Count != 1 {
		t.Errorf("total_ns histogram not recorded: %+v", mr.Metrics.Histograms)
	}
}

// TestServeWorkloadsEndpoint: the suite listing matches the workloads
// package.
func TestServeWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	hr, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var got []WorkloadInfo
	if err := json.NewDecoder(hr.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	all := workloads.All()
	if len(got) != len(all) {
		t.Fatalf("listing has %d workloads, suite has %d", len(got), len(all))
	}
	for i, w := range all {
		if got[i].Name != w.Name || got[i].Class != w.Class {
			t.Errorf("entry %d = %+v, want %s/%s", i, got[i], w.Name, w.Class)
		}
	}
}

// TestRunLoadAgainstServer: the shared load generator sweeps the suite
// against an in-process server with a differential oracle and reports
// zero errors — the same path benchrecord -serve and brload use.
func TestRunLoadAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite load run is not short")
	}
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64, Metrics: reg})

	oracle := NewDifferentialOracle()
	res, err := RunLoad(context.Background(), LoadSpec{
		BaseURL:  ts.URL,
		Clients:  8,
		Requests: 76, // 2× the 19×2 matrix
		Verify:   oracle.Verify,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Server5xx != 0 {
		t.Fatalf("load run failed: %+v", res)
	}
	if res.Requests != 76 {
		t.Errorf("requests = %d, want 76", res.Requests)
	}
	if res.P50NS <= 0 || res.P99NS < res.P50NS {
		t.Errorf("latency percentiles not sane: p50=%d p99=%d", res.P50NS, res.P99NS)
	}
}

// TestPercentiles covers the latency aggregation edge cases.
func TestPercentiles(t *testing.T) {
	if p50, p99 := percentiles(nil); p50 != 0 || p99 != 0 {
		t.Errorf("empty: %d/%d", p50, p99)
	}
	if p50, p99 := percentiles([]int64{5}); p50 != 5 || p99 != 5 {
		t.Errorf("single: %d/%d", p50, p99)
	}
	var ns []int64
	for i := int64(100); i >= 1; i-- {
		ns = append(ns, i)
	}
	p50, p99 := percentiles(ns)
	if p50 != 50 || p99 != 99 {
		t.Errorf("1..100: p50=%d p99=%d, want 50/99", p50, p99)
	}
}
