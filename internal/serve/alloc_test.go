package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"branchreg/internal/obs"
)

// Allocation budgets for the serve hot paths. These are ceilings, not
// aspirations: the cache-hit path answers without queueing, executing,
// or re-encoding through fresh buffers, the miss path executes once
// behind one memo lookup, and the budgets pin the pooled
// pieces (body read buffer, JSON encoder, latency-histogram handles)
// so an accidental per-request allocation — a fmt.Sprintf in emit, an
// unpooled encoder — fails the gate instead of quietly taxing every
// response. Run without -race (`make alloc-gate`); the detector's
// instrumentation allocates on its own.

// nullRW discards the response; a ResponseRecorder's growing body
// buffer would bill its own allocations to the handler under test.
type nullRW struct{ h http.Header }

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullRW) WriteHeader(int)             {}

// hitHarness warms one sieve entry and returns a closure that replays
// the identical request as an admission-time cache hit.
func hitHarness(t testing.TB) func() {
	cfg := Config{Workers: 2, Metrics: obs.NewRegistry()}
	s := New(cfg)
	t.Cleanup(func() { stopServer(t, s) })

	body := []byte(`{"workload":"sieve"}`)
	warm := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	warm.Header.Set("X-Request-Id", "alloc-warm")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, warm)
	if rec.Code != 200 {
		t.Fatalf("warmup: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
	req.Header.Set("X-Request-Id", "alloc-hit")
	w := &nullRW{h: http.Header{}}
	return func() {
		req.Body = io.NopCloser(bytes.NewReader(body))
		s.ServeHTTP(w, req)
	}
}

func stopServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestServeCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	hit := hitHarness(t)
	hit() // absorb one-time pool and histogram-set population

	avg := testing.AllocsPerRun(200, hit)
	// Measured 39 allocs/hit: JSON decode of the request, the
	// fingerprint, the request trace and its spans, the response
	// struct, and the flight-record offer. The ceiling leaves room for
	// stdlib drift but fails on anything structural: an unpooled
	// encoder, a per-response fmt name, or a per-request rebuild of the
	// workload table each cost 10+.
	const budget = 60
	if avg > budget {
		t.Errorf("cache-hit path allocates %.1f objects per request, budget %d", avg, budget)
	}
}

// execRequests is how many distinct requests the miss-path harness sends.
const execRequests = 400

// execHarness warms the compile cache with one wc request and returns a
// closure that sends the next of execRequests wc requests with distinct
// stdin, so every call misses the memo and executes, plus the registry
// whose serve.ok counts the answered ones.
func execHarness(t testing.TB) (func(), *obs.Registry) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, ShadowRate: -1, FlightSample: -1, Metrics: reg})
	t.Cleanup(func() { stopServer(t, s) })

	bodies := make([][]byte, execRequests+1) // +1: the warmup
	for i := range bodies {
		input := fmt.Sprintf("request %d of the miss-path harness\n", i)
		b, err := json.Marshal(&RunRequest{Workload: "wc", Input: &input})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
	req.Header.Set("X-Request-Id", "alloc-exec")
	w := &nullRW{h: http.Header{}}
	next := 0
	return func() {
		req.Body = io.NopCloser(bytes.NewReader(bodies[next]))
		next++
		s.ServeHTTP(w, req)
	}, reg
}

func TestServeExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	exec, reg := execHarness(t)
	exec() // compile wc and populate the pools
	// AllocsPerRun makes one extra warm-up call of its own.
	avg := testing.AllocsPerRun(execRequests-1, exec)
	if n := reg.Counter("serve.ok").Value(); n != execRequests+1 {
		t.Fatalf("%d of %d requests answered 200", n, execRequests+1)
	}
	// Measured 82 allocs/request: JSON decode of the request, one
	// fingerprint, the memo slot and the job, the supervised execution
	// with its trace spans, the kept result, the response, and the
	// flight-record offer. The ceiling is that plus 10: one more
	// Fingerprint call per request (11 allocs here) fails the gate.
	const budget = 92
	if avg > budget {
		t.Errorf("miss path allocates %.1f objects per request, budget %d", avg, budget)
	}
}

// BenchmarkServeCacheHit is the memoized hot path end to end (decode,
// fingerprint, memo lookup, respond) without HTTP transport overhead.
// Run with -benchmem: the allocs/op figure is the one the alloc gate
// budgets.
func BenchmarkServeCacheHit(b *testing.B) {
	hit := hitHarness(b)
	hit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}
