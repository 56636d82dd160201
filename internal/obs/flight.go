package obs

import (
	"sync"
	"time"
)

// The flight recorder: a bounded ring of fully-traced requests, the
// request-level analogue of the guard incident ring. Every finished
// request is offered; the recorder keeps the ones worth explaining
// after the fact — server errors, fallback- or reroute-annotated
// responses, slow requests, and a deterministic 1-in-N sample of
// everything else — each with its complete span tree and a
// request/response summary. brserve serves the ring at
// GET /v1/debug/requests (summaries) and /v1/debug/requests/{id}
// (full span tree), so a chaos run or a p99 spike decomposes into
// concrete, replayable request records instead of aggregate counters.

// RequestRecord is one retained request: the summary plus its span tree.
type RequestRecord struct {
	// ID is the request ID (generated at admission or propagated from
	// the client's X-Request-Id).
	ID string `json:"id"`
	// Time is when admission started the request's trace.
	Time time.Time `json:"time"`
	// Class is the guard workload class ("sieve/branchreg", "src:<hash>/baseline").
	Class string `json:"class,omitempty"`
	// Tenant names the caller, when the request carried one.
	Tenant string `json:"tenant,omitempty"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status"`
	// Engine is the emulator tier that served the response, if any.
	Engine string `json:"engine,omitempty"`
	// FallbackFrom / Rerouted mirror the guard annotations on the response.
	FallbackFrom []string `json:"fallback_from,omitempty"`
	Rerouted     bool     `json:"rerouted,omitempty"`
	// Coalesced marks a response served from another request's execution.
	Coalesced bool `json:"coalesced,omitempty"`
	// Trap is the trap kind for a trapped run ("" for a clean one).
	Trap string `json:"trap,omitempty"`
	// Error is the response's error string, if any.
	Error string `json:"error,omitempty"`
	// Phases is the response's wall-clock decomposition in nanoseconds
	// (queue_ns, compile_ns, run_ns, total_ns).
	Phases map[string]int64 `json:"phases,omitempty"`
	// Reasons lists why the recorder retained this request: "error",
	// "fallback", "slow", and/or "sampled".
	Reasons []string `json:"reasons,omitempty"`
	// Spans is the request's span tree (SpanRecord.Parent links it).
	Spans []SpanRecord `json:"spans,omitempty"`
}

// FlightRecorder retains interesting requests in a bounded ring.
// All methods are safe for concurrent use; a nil recorder drops
// everything.
type FlightRecorder struct {
	capN        int
	slowNS      int64
	sampleEvery int64

	mu       sync.Mutex
	ring     []RequestRecord
	next     int
	offered  int64
	retained int64
}

// NewFlightRecorder builds a recorder keeping up to capN requests.
// slowNS retains any request whose total phase exceeds it (<= 0
// disables the slow criterion); sampleEvery retains every Nth offered
// request regardless of interest (<= 0 disables sampling).
func NewFlightRecorder(capN int, slowNS int64, sampleEvery int) *FlightRecorder {
	if capN <= 0 {
		capN = 256
	}
	return &FlightRecorder{capN: capN, slowNS: slowNS, sampleEvery: int64(sampleEvery), ring: make([]RequestRecord, 0, capN)}
}

// Keep counts one finished request and returns why the recorder
// retains it (nil: drop it): its HTTP status, whether a fallback or
// reroute annotated it, its total wall clock, and the offered count,
// which drives deterministic sampling. It needs no record, so a caller
// builds one, span tree included, only for a request Keep retains and
// hands it to Add with these reasons.
func (f *FlightRecorder) Keep(status int, fallback bool, totalNS int64) []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	f.offered++
	n := f.offered
	f.mu.Unlock()
	var out []string
	if status >= 500 || status == 408 {
		out = append(out, "error")
	}
	if fallback {
		out = append(out, "fallback")
	}
	if f.slowNS > 0 && totalNS >= f.slowNS {
		out = append(out, "slow")
	}
	if f.sampleEvery > 0 && n%f.sampleEvery == 0 {
		out = append(out, "sampled")
	}
	return out
}

// Add retains a record Keep retained (rec.Reasons holds Keep's
// reasons), evicting the oldest retained record when the ring is full.
func (f *FlightRecorder) Add(rec RequestRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.retained++
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, rec)
		f.next = len(f.ring) % cap(f.ring)
		return
	}
	f.ring[f.next] = rec
	f.next = (f.next + 1) % cap(f.ring)
}

// Snapshot returns the retained records newest-first (spans included),
// plus the all-time retained and offered totals. retained −
// len(records) have been evicted from the bounded ring.
func (f *FlightRecorder) Snapshot() (records []RequestRecord, retained, offered int64) {
	if f == nil {
		return nil, 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	records = make([]RequestRecord, 0, len(f.ring))
	for i := 0; i < len(f.ring); i++ {
		records = append(records, f.ring[(f.next-1-i+2*cap(f.ring))%cap(f.ring)])
	}
	return records, f.retained, f.offered
}

// Get returns the retained record with the given request ID. When one
// ID was offered more than once (a retried client reusing its
// X-Request-Id), the newest record wins.
func (f *FlightRecorder) Get(id string) (RequestRecord, bool) {
	if f == nil {
		return RequestRecord{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < len(f.ring); i++ {
		rec := f.ring[(f.next-1-i+2*cap(f.ring))%cap(f.ring)]
		if rec.ID == id {
			return rec, true
		}
	}
	return RequestRecord{}, false
}
