package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"branchreg/internal/obs"
)

// postWithID is post with an X-Request-Id header, returning the
// response header's echo alongside the decoded body.
func postWithID(t *testing.T, url, id string, rr *RunRequest) (int, string, *RunResponse) {
	t.Helper()
	body, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/run", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp RunResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decode (HTTP %d): %v", hr.StatusCode, err)
	}
	return hr.StatusCode, hr.Header.Get("X-Request-Id"), &resp
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// A well-formed inbound ID is echoed in the header and the body.
	code, echo, resp := postWithID(t, ts.URL, "client-id_1:abc", &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("HTTP %d: %+v", code, resp)
	}
	if echo != "client-id_1:abc" || resp.RequestID != "client-id_1:abc" {
		t.Errorf("echo = %q, body request_id = %q; want the sent ID back in both", echo, resp.RequestID)
	}

	// A hostile or malformed ID is replaced with a generated one.
	code, echo, resp = postWithID(t, ts.URL, "bad id {with junk}", &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("HTTP %d: %+v", code, resp)
	}
	if echo == "" || echo == "bad id {with junk}" || echo != resp.RequestID {
		t.Errorf("malformed inbound ID: header %q, body %q; want a matching generated ID", echo, resp.RequestID)
	}

	// No inbound ID: one is generated, and distinct per request.
	_, first, _ := postWithID(t, ts.URL, "", &RunRequest{Workload: "sieve", Machine: "baseline"})
	_, second, _ := postWithID(t, ts.URL, "", &RunRequest{Workload: "echo", Machine: "baseline"})
	if first == "" || second == "" || first == second {
		t.Errorf("generated IDs %q and %q; want distinct non-empty", first, second)
	}

	// Rejections carry IDs too: a 400 still echoes.
	code, echo, resp = postWithID(t, ts.URL, "reject-1", &RunRequest{})
	if code != 400 || echo != "reject-1" || resp.RequestID != "reject-1" {
		t.Errorf("rejection: HTTP %d, header %q, body %q; want 400 echoing reject-1", code, echo, resp.RequestID)
	}
}

func TestDebugRequestsEndpoints(t *testing.T) {
	// Sample every request so even fast clean runs are retained.
	_, ts := newTestServer(t, Config{Workers: 2, FlightSample: 1})

	code, _, resp := postWithID(t, ts.URL, "flight-test-1", &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("HTTP %d: %+v", code, resp)
	}

	var list DebugRequestsReply
	hr, err := http.Get(ts.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Offered < 1 || list.Retained < 1 || len(list.Requests) < 1 {
		t.Fatalf("flight list: offered %d retained %d records %d; want all >= 1",
			list.Offered, list.Retained, len(list.Requests))
	}
	for _, rec := range list.Requests {
		if len(rec.Spans) != 0 {
			t.Errorf("list record %s carries %d spans; summaries must strip them", rec.ID, len(rec.Spans))
		}
	}

	var rec obs.RequestRecord
	hr2, err := http.Get(ts.URL + "/v1/debug/requests/flight-test-1")
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	if hr2.StatusCode != 200 {
		raw, _ := io.ReadAll(hr2.Body)
		t.Fatalf("GET by id: HTTP %d: %s", hr2.StatusCode, raw)
	}
	if err := json.NewDecoder(hr2.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != "flight-test-1" || rec.Status != 200 || rec.Engine == "" {
		t.Errorf("record = %+v; want id flight-test-1, status 200, an engine", rec)
	}
	if rec.Phases["total_ns"] <= 0 {
		t.Errorf("record phases = %v; want a positive total_ns", rec.Phases)
	}
	want := map[string]bool{"request": false, "queue": false, "exec": false, "run": false}
	for _, sp := range rec.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("span tree lacks a %q span: %+v", name, rec.Spans)
		}
	}

	// Unknown IDs are a JSON 404, not an empty 200.
	hr3, err := http.Get(ts.URL + "/v1/debug/requests/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr3.Body)
	hr3.Body.Close()
	if hr3.StatusCode != 404 {
		t.Errorf("unknown id: HTTP %d, want 404", hr3.StatusCode)
	}
}

func TestMetricsPromExposition(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 2, Metrics: reg})

	if code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"}); code != 200 {
		t.Fatalf("HTTP %d: %+v", code, resp)
	}

	hr, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("HTTP %d", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q; want the 0.0.4 text exposition", ct)
	}
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintProm(raw); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, raw)
	}
	for _, want := range []string{
		"serve_requests", "serve_queue_depth_total", "serve_uptime_ms",
		"serve_cache_hits", "serve_latency_total_2xx_",
		"driver_compile_cache_bytes", "driver_compile_cache_entries", "driver_compile_cache_evictions",
		"runtime_heap_live_bytes", "runtime_goroutines", "runtime_gc_cycles", "runtime_gc_pause_ns",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}

	// The JSON form is unchanged for existing consumers, plus the new
	// started/uptime_ms/version fields.
	var mr MetricsReply
	hr2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	if err := json.NewDecoder(hr2.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Metrics.Counters["serve.requests"] < 1 {
		t.Errorf("JSON metrics lost serve.requests: %v", mr.Metrics.Counters)
	}
	if mr.Started == "" || mr.Version == "" || mr.UptimeMS < 0 {
		t.Errorf("MetricsReply meta = started %q, version %q, uptime_ms %d", mr.Started, mr.Version, mr.UptimeMS)
	}
	if _, ok := mr.Metrics.Gauges["serve.queue.depth.total"]; !ok {
		t.Errorf("gauges lack serve.queue.depth.total: %v", mr.Metrics.Gauges)
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var vr VersionReply
	hr, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if vr.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", vr.GoVersion, runtime.Version())
	}
	if vr.Version == "" || vr.Started == "" {
		t.Errorf("version reply = %+v; want non-empty version and started", vr)
	}
}
