package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/guard"
	"branchreg/internal/obs"
	"branchreg/internal/workloads"
)

// Config sizes and scopes a Server. The zero value is usable: New fills
// every unset field with the documented default.
type Config struct {
	// Workers is the number of execution goroutines across all shards
	// (default: GOMAXPROCS).
	Workers int
	// Shards is the number of admission shards; requests hash to a shard
	// by fingerprint (default: min(Workers, 4), at least 1).
	Shards int
	// QueueDepth is the total queued-job capacity across shards
	// (default: 4 × Workers). A full shard queue answers 429.
	QueueDepth int
	// MaxSourceBytes rejects larger programs with 413 (default: 1 MiB;
	// negative disables the limit).
	MaxSourceBytes int
	// DefaultStepBudget is the instruction budget applied when a request
	// names none (default: 0, meaning the emulator's own default budget).
	DefaultStepBudget int64
	// MaxStepBudget caps every request's budget (0 = uncapped);
	// TenantBudgets overrides the cap per tenant name. A request asking
	// for more than its tenant's cap is clamped, so overruns surface as
	// TrapStepBudget at the cap — HTTP 422.
	MaxStepBudget int64
	TenantBudgets map[string]int64
	// MaxBodyBytes bounds one request body via http.MaxBytesReader;
	// larger bodies answer 413 (default: 1 MiB plus JSON-framing
	// headroom over MaxSourceBytes; negative disables the limit).
	MaxBodyBytes int64
	// JobTimeout bounds one execution's wall clock (default: 2 minutes).
	// An expired job answers 408.
	JobTimeout time.Duration
	// Cache supplies the compile cache (default: a fresh private cache).
	Cache *driver.Cache
	// CacheMB is the memory budget in MiB of the server's two caches
	// (default 64), split evenly: half bounds the compiled programs the
	// compile cache keeps (with their adaptive-tier state), half the
	// results the memo keeps. A negative value keeps no results (the
	// memo still shares one execution among identical requests in
	// flight); the compile cache then keeps its default half. Admission
	// looks every request up in the memo once, so repeat requests are
	// answered without touching a worker shard; see driver.ResultCache
	// for what is kept. A supplied Cache that already has a byte budget
	// or a ResultCache keeps them, and the matching half here is ignored.
	CacheMB int
	// Metrics supplies the registry serve records into (default:
	// obs.Default).
	Metrics *obs.Registry

	// BreakerThreshold is the consecutive engine-failure count that opens
	// a (class, engine) circuit breaker (default 3; see internal/guard).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker pins its class to the
	// fallback engine before half-open probing (default 30s).
	BreakerCooldown time.Duration
	// ShadowRate samples every Nth successful execution of a class for
	// background differential re-execution on the alternate engine
	// (default 32; negative disables shadow verification).
	ShadowRate int
	// IncidentCap bounds the incident ring served at GET /v1/incidents
	// (default 256).
	IncidentCap int
	// Chaos, when non-nil, arms the deterministic chaos plan — injected
	// engine panics, latency, and worker stalls for supervision testing.
	// Never set it on a production server.
	Chaos *ChaosPlan

	// FlightCap bounds the flight-recorder ring served at
	// GET /v1/debug/requests (default 256).
	FlightCap int
	// FlightSlow retains any request slower than this in the flight
	// recorder (default 250ms; negative disables the slow criterion).
	FlightSlow time.Duration
	// FlightSample retains every Nth request in the flight recorder
	// regardless of interest (default 64; negative disables sampling).
	FlightSample int
	// Logger receives structured request logs (default: discard).
	// Errors and fallback/reroute-annotated requests always log;
	// LogSample additionally logs every Nth ordinary request (0 = none).
	Logger    *slog.Logger
	LogSample int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — runtime
	// profiling for a live server, gated because the endpoints expose
	// process internals.
	EnablePprof bool
}

// defaultCacheMB is Config.CacheMB's default: 32 MiB of compiled
// programs plus 32 MiB of results.
const defaultCacheMB = 64

// cacheHalf is the byte budget of each of the two caches under a CacheMB
// setting; a negative setting (keep no results) leaves the compile cache
// its default half.
func cacheHalf(mb int) int64 {
	if mb <= 0 {
		mb = defaultCacheMB
	}
	return (int64(mb) << 20) / 2
}

// serveMetrics holds the resolved metric handles so the request path
// pays one atomic op per event, never a registry lookup.
type serveMetrics struct {
	requests  *obs.Counter
	ok        *obs.Counter
	coalesced *obs.Counter
	queueFull *obs.Counter
	draining  *obs.Counter
	badReq    *obs.Counter
	traps     *obs.Counter
	budget    *obs.Counter
	timeouts  *obs.Counter
	internal  *obs.Counter
	inflight  *obs.Gauge
	queueWait *obs.Histogram
	totalNS   *obs.Histogram
	// queueTotal aggregates the per-shard serve.queue.depth.%d gauges:
	// one number for "how much is queued right now" without a consumer
	// having to know the shard count.
	queueTotal *obs.Gauge
}

func newServeMetrics(r *obs.Registry) serveMetrics {
	return serveMetrics{
		requests:   r.Counter("serve.requests"),
		ok:         r.Counter("serve.ok"),
		coalesced:  r.Counter("serve.coalesced"),
		queueFull:  r.Counter("serve.rejected.queue_full"),
		draining:   r.Counter("serve.rejected.draining"),
		badReq:     r.Counter("serve.rejected.bad_request"),
		traps:      r.Counter("serve.traps"),
		budget:     r.Counter("serve.traps.step_budget"),
		timeouts:   r.Counter("serve.timeouts"),
		internal:   r.Counter("serve.errors.internal"),
		inflight:   r.Gauge("serve.inflight"),
		queueWait:  r.Histogram("serve.queue_wait_ns"),
		totalNS:    r.Histogram("serve.total_ns"),
		queueTotal: r.Gauge("serve.queue.depth.total"),
	}
}

// job is one admitted execution: a leader's memo slot on its way to a
// worker, which executes the request and publishes the outcome to the
// slot for the leader and every request that joined it.
type job struct {
	req     driver.Request
	class   string
	slot    *driver.ResultSlot
	enq     time.Time
	queueNS int64 // written by the worker before it publishes

	// The admitting request's trace rides with the job: the worker
	// attaches it to the execution context so driver/guard spans land in
	// it. Coalesced followers keep their own traces; only the leader's
	// trace sees the execution.
	trace     *obs.ReqTrace
	rootID    obs.SpanID
	queueSpan *obs.Span
}

// shard is one admission lane: a bounded queue of jobs. Hashing
// fingerprints across shards keeps queue-lock contention bounded as
// workers scale.
type shard struct {
	mu     sync.Mutex
	closed bool
	queue  chan *job
	// depth exports the queue's occupancy as serve.queue.depth.<i>, so
	// /metrics shows where admission pressure concentrates.
	depth *obs.Gauge
}

// Server is the compile-and-run service. Create with New, expose via
// ServeHTTP (it is an http.Handler), stop with Drain.
type Server struct {
	cfg      Config
	cache    *driver.Cache
	results  *driver.ResultCache // the admission memo, attached to cache
	sup      *guard.Supervisor
	chaos    *chaos
	m        serveMetrics
	mux      *http.ServeMux
	shards   []*shard
	workers  sync.WaitGroup
	draining atomic.Bool
	running  atomic.Int64
	start    time.Time
	// bodyLimit is the resolved MaxBodyBytes (<= 0: unlimited).
	bodyLimit int64

	// latSets caches the per-(status-class, engine) latency histogram
	// handles emit records into, so the hot path pays one map read
	// instead of four fmt.Sprintf name constructions per response.
	latMu   sync.RWMutex
	latSets map[latKey]*latencySet

	// ewmaNS tracks recent job wall clocks (EWMA, α=1/8) so the 429
	// Retry-After hint reflects how fast the queue actually drains.
	ewmaNS          atomic.Int64
	workersPerShard int

	flight *obs.FlightRecorder
	logger *slog.Logger
	// idPrefix makes generated request IDs unique across server restarts;
	// reqN numbers requests within this process.
	idPrefix string
	reqN     atomic.Int64
	// logN counts responses for -log-sample's every-Nth selection.
	logN atomic.Int64
	// queueLen tracks total queued jobs across shards for the
	// serve.queue.depth.total gauge.
	queueLen atomic.Int64

	// gate, when non-nil, is received from before each job executes —
	// a test hook that makes queue-full behavior deterministic.
	gate chan struct{}
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = min(cfg.Workers, 4)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.MaxSourceBytes == 0 {
		cfg.MaxSourceBytes = 1 << 20
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.Cache == nil {
		cfg.Cache = driver.NewCache()
	}
	if cfg.CacheMB == 0 {
		cfg.CacheMB = defaultCacheMB
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
		if cfg.MaxSourceBytes > 0 && int64(cfg.MaxSourceBytes)+64*1024 > cfg.MaxBodyBytes {
			// The body limit must never reject a source the source limit
			// accepts; keep JSON-framing headroom above it.
			cfg.MaxBodyBytes = int64(cfg.MaxSourceBytes) + 64*1024
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default
	}
	if cfg.ShadowRate == 0 {
		cfg.ShadowRate = 32
	}
	if cfg.FlightCap <= 0 {
		cfg.FlightCap = 256
	}
	if cfg.FlightSlow == 0 {
		cfg.FlightSlow = 250 * time.Millisecond
	}
	if cfg.FlightSample == 0 {
		cfg.FlightSample = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var seed [4]byte
	_, _ = rand.Read(seed[:])
	s := &Server{
		cfg:       cfg,
		cache:     cfg.Cache,
		m:         newServeMetrics(cfg.Metrics),
		start:     time.Now(),
		bodyLimit: cfg.MaxBodyBytes,
		flight:    obs.NewFlightRecorder(cfg.FlightCap, cfg.FlightSlow.Nanoseconds(), cfg.FlightSample),
		logger:    cfg.Logger,
		idPrefix:  hex.EncodeToString(seed[:]),
		latSets:   map[latKey]*latencySet{},
	}
	half := cacheHalf(cfg.CacheMB)
	if s.cache.MemStats().MaxBytes == 0 {
		s.cache.SetMaxBytes(half)
	}
	if s.cache.ResultCache() == nil {
		keep := half
		if cfg.CacheMB < 0 {
			keep = 0
		}
		s.cache.SetResultCache(driver.NewResultCache(keep))
	}
	s.results = s.cache.ResultCache()
	// The execution stack, bottom-up: the compile cache's Exec, the chaos
	// injector (tests and smoke runs only), and the guard supervisor the
	// workers actually call.
	exec := guard.ExecFunc(func(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
		return s.cache.Exec(ctx, req)
	})
	if cfg.Chaos != nil {
		s.chaos = newChaos(*cfg.Chaos, cfg.Metrics)
		exec = s.chaos.wrap(exec)
	}
	shadowRate := cfg.ShadowRate
	if shadowRate < 0 {
		shadowRate = 0
	}
	s.sup = guard.New(guard.Config{
		Exec:          exec,
		Threshold:     cfg.BreakerThreshold,
		Cooldown:      cfg.BreakerCooldown,
		ShadowRate:    shadowRate,
		ShadowTimeout: cfg.JobTimeout,
		IncidentCap:   cfg.IncidentCap,
		Metrics:       cfg.Metrics,
		OnQuarantine: func(class, tier string) {
			s.results.Invalidate(class, tier)
		},
	})
	s.workersPerShard = max(1, cfg.Workers/cfg.Shards)
	perShard := max(1, cfg.QueueDepth/cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{
			queue: make(chan *job, perShard),
			depth: cfg.Metrics.Gauge(fmt.Sprintf("serve.queue.depth.%d", i)),
		})
	}
	for i := 0; i < cfg.Workers; i++ {
		sh := s.shards[i%len(s.shards)]
		s.workers.Add(1)
		go s.worker(sh)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/incidents", s.handleIncidents)
	s.mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /v1/debug/requests/{id}", s.handleDebugRequest)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admission (new runs answer 503), lets queued jobs finish,
// and waits for the workers — or for ctx, whichever comes first.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil // second drain is a no-op
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		close(sh.queue)
		sh.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		// Only after the last worker exits can no new shadow samples
		// arrive; close the supervisor's shadow pool and let queued
		// verifications finish.
		s.sup.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with jobs still running: %w", ctx.Err())
	}
}

// shardFor hashes a fingerprint to its admission shard.
func (s *Server) shardFor(fp string) *shard {
	h := fnv.New32a()
	h.Write([]byte(fp))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// errInternal marks a worker panic: the only path to a 500.
var errInternal = errors.New("internal error")

// observeJobDuration folds one job's execution wall clock into the
// EWMA the Retry-After hint is scaled by (α = 1/8; the first sample
// seeds the average).
func (s *Server) observeJobDuration(ns int64) {
	for {
		old := s.ewmaNS.Load()
		nw := old + (ns-old)/8
		if old == 0 {
			nw = ns
		}
		if s.ewmaNS.CompareAndSwap(old, nw) {
			return
		}
	}
}

// retryAfterHint scales a 429's Retry-After by observed load instead
// of a constant: the refusing shard's queue depth times the EWMA job
// duration, spread across the shard's workers, is the expected time
// until a slot frees — clamped to [1, 30] whole seconds (RFC 9110
// Retry-After is integral). Before any job has completed the hint
// stays at the old constant 1.
func (s *Server) retryAfterHint(depth int) string {
	ewma := s.ewmaNS.Load()
	if ewma <= 0 || depth <= 0 {
		return "1"
	}
	denom := int64(s.workersPerShard) * int64(time.Second)
	secs := (int64(depth)*ewma + denom - 1) / denom
	return strconv.FormatInt(min(max(secs, 1), 30), 10)
}

// worker executes jobs from one shard's queue until Drain closes it.
func (s *Server) worker(sh *shard) {
	defer s.workers.Done()
	for j := range sh.queue {
		sh.depth.Set(int64(len(sh.queue)))
		s.m.queueTotal.Set(s.queueLen.Add(-1))
		if s.gate != nil {
			<-s.gate
		}
		if s.chaos != nil {
			s.chaos.maybeStall()
		}
		j.queueNS = time.Since(j.enq).Nanoseconds()
		j.queueSpan.End()
		s.m.queueWait.Observe(j.queueNS)
		s.m.inflight.Set(s.running.Add(1))
		runStart := time.Now()
		res, err := s.execJob(j)
		s.observeJobDuration(time.Since(runStart).Nanoseconds())
		s.m.inflight.Set(s.running.Add(-1))
		s.results.Publish(j.slot, res, err)
	}
}

// execJob runs one job through the guard supervisor under the
// configured timeout. The supervisor absorbs engine-tier panics via
// fallback; the recover here is the last resort for a panic outside
// any tier attempt (or one that exhausted every tier and re-escaped),
// converting it into errInternal so a bug costs one 500, not the
// process.
func (s *Server) execJob(j *job) (out *driver.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("%w: panic: %v", errInternal, p)
		}
	}()
	ctx := context.Background()
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	// Attach the admitting request's trace so driver and guard spans land
	// in it; the exec span's deferred End survives the panic path above.
	ctx = obs.ContextWithReqTrace(ctx, j.trace)
	ctx = obs.ContextWithSpan(ctx, j.rootID)
	sp, ctx := obs.StartSpan(ctx, "exec", "serve")
	defer sp.End()
	return s.sup.Exec(ctx, j.class, j.req)
}

// reqCtx carries one request's observability state from admission to
// the response writer: its ID, its trace and root span, and the
// classification the flight recorder and the request log report.
type reqCtx struct {
	id        string
	rt        *obs.ReqTrace
	root      *obs.Span
	start     time.Time
	class     string
	tenant    string
	cached    bool
	coalesced bool
}

// validRequestID bounds what the server accepts as an inbound
// X-Request-Id: non-empty, at most 120 bytes, [A-Za-z0-9._:-] only.
// Anything else is replaced with a generated ID, so a hostile header
// can't smuggle log/exposition payloads.
func validRequestID(id string) bool {
	if id == "" || len(id) > 120 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// requestID echoes a well-formed inbound X-Request-Id (so a caller —
// or brload -trace-propagate — can correlate its own IDs with flight
// records) or generates one: a per-process random prefix plus a
// sequence number.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	return fmt.Sprintf("%s-%d", s.idPrefix, s.reqN.Add(1))
}

// statusClass buckets an HTTP status for the serve.latency metric
// names: 2xx, 4xx, or 5xx.
func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// handleRun is POST /v1/run: decode, look up the memo once (hit / join /
// lead), wait for the slot, respond. A leader enqueues its job, or
// publishes its 429/503 to the slot when it cannot. Every response path
// runs through emit, so every request — including rejections — carries
// X-Request-Id, lands in the latency histograms, and is offered to the
// flight recorder.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	rc := &reqCtx{id: s.requestID(r), start: time.Now()}
	rc.rt = obs.NewReqTrace(rc.id)
	rc.root = rc.rt.Begin("request", "serve", 0)
	w.Header().Set("X-Request-Id", rc.id)
	var rr RunRequest
	if err := s.decodeBody(w, r, &rr); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.m.badReq.Inc()
			s.emit(w, rc, 413, &RunResponse{Error: fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit)})
			return
		}
		s.m.badReq.Inc()
		s.emit(w, rc, 400, &RunResponse{Error: "bad request body: " + err.Error()})
		return
	}
	rc.tenant = rr.Tenant
	req, class, err := s.buildRequest(&rr)
	if err != nil {
		s.m.badReq.Inc()
		he := &httpError{code: 400, msg: err.Error()}
		errors.As(err, &he)
		s.emit(w, rc, he.code, &RunResponse{Error: he.msg, Machine: rr.Machine})
		return
	}
	rc.class = class

	if s.draining.Load() {
		s.m.draining.Inc()
		s.emit(w, rc, 503, &RunResponse{Error: "server is draining"})
		return
	}
	fp := req.Fingerprint()

	// The one memo lookup. A no_cache request takes a private slot: it
	// neither reads, joins nor publishes, so it always executes afresh.
	var slot *driver.ResultSlot
	lead := true
	if rr.NoCache {
		slot = s.results.Private()
	} else {
		slot, lead = s.results.Acquire(fp, class)
	}
	var j *job
	var waitSpan *obs.Span
	switch {
	case lead:
		j = s.enqueue(s.shardFor(fp), slot, req, class, rc)
	case slot.Kept():
		// A hit never touches a shard queue — no queueing, no worker, no
		// 429 pressure; the span makes the shortcut visible in the flight
		// recorder.
		rc.cached = true
		rc.rt.Begin("cache-hit", "serve", rc.root.ID()).End()
	default:
		// A coalesced follower never executes: its trace records only the
		// wait for the leader's execution to publish.
		s.m.coalesced.Inc()
		rc.coalesced = true
		waitSpan = rc.rt.Begin("coalesced-wait", "serve", rc.root.ID())
	}
	select {
	case <-slot.Done():
		waitSpan.End()
	case <-r.Context().Done():
		// The client went away; the job keeps running for any coalesced
		// followers and for the memo's benefit. Nothing to emit — there
		// is no one left to respond to.
		waitSpan.End()
		rc.root.SetArg("status", "client-disconnected")
		rc.root.End()
		return
	}
	var queueNS int64
	if j != nil {
		queueNS = j.queueNS
	}
	res, err := slot.Outcome()
	s.respond(w, &req, res, err, queueNS, rc)
}

// enqueue hands a leader's slot to its shard as a job. When the shard
// refuses it — queue full (429) or draining (503) — the refusal is
// published to the slot instead, so requests that joined it in the
// meantime get the same answer, Retry-After included.
func (s *Server) enqueue(sh *shard, slot *driver.ResultSlot, req driver.Request, class string, rc *reqCtx) *job {
	j := &job{req: req, class: class, slot: slot, enq: time.Now(), trace: rc.rt, rootID: rc.root.ID()}
	var refusal *httpError
	sh.mu.Lock()
	if sh.closed {
		refusal = &httpError{code: 503, msg: "server is draining"}
	} else {
		// The queue span must be attached before the channel send
		// publishes the job to a worker (which ends it at dequeue).
		j.queueSpan = rc.rt.Begin("queue", "serve", rc.root.ID())
		select {
		case sh.queue <- j:
			sh.depth.Set(int64(len(sh.queue)))
			s.m.queueTotal.Set(s.queueLen.Add(1))
		default:
			j.queueSpan.End()
			refusal = &httpError{code: 429, msg: "queue full, retry later",
				retryAfter: s.retryAfterHint(len(sh.queue))}
		}
	}
	sh.mu.Unlock()
	if refusal != nil {
		s.results.Publish(slot, nil, refusal)
	}
	return j
}

// bodyBufPool recycles request-body read buffers across requests: the
// hot path reads the whole (bounded) body into a pooled buffer and
// unmarshals from it, so a request costs one buffer reuse instead of a
// fresh decoder-owned allocation. json.Unmarshal copies what it keeps,
// so the buffer is safe to recycle immediately after decoding.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// poolBufCap is the largest buffer the body and response pools retain;
// oversized one-off buffers are dropped instead of pinned forever.
const poolBufCap = 1 << 20

// decodeBody reads the request body — bounded by MaxBodyBytes via
// http.MaxBytesReader — into a pooled buffer and unmarshals it. An
// over-limit body surfaces as *http.MaxBytesError for the 413 path.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, rr *RunRequest) error {
	body := r.Body
	if s.bodyLimit > 0 {
		body = http.MaxBytesReader(w, r.Body, s.bodyLimit)
	}
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= poolBufCap {
			bodyBufPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(body); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), rr)
}

// respond classifies one slot outcome onto the wire. Status mapping:
// clean run and non-budget runtime traps are 200 (the service worked;
// the trap is the program's outcome, reported as data), a step-budget
// trap is 422 (the tenant exceeded its allowance), compile and
// validation failures are 400, a timed-out job is 408, a worker panic is
// the only 500, and a leader's refusal is its 429 or 503. queueNS is the
// leader's queue wait; hits and followers did not queue.
func (s *Server) respond(w http.ResponseWriter, req *driver.Request, res *driver.Result, err error, queueNS int64, rc *reqCtx) {
	resp := &RunResponse{
		Machine:   req.Kind.String(),
		Cached:    rc.cached,
		Coalesced: rc.coalesced,
		Timing:    &Timing{QueueNS: queueNS, TotalNS: time.Since(rc.start).Nanoseconds()},
	}
	if err == nil {
		resp.Output = res.Output
		resp.Status = res.Status
		resp.Engine = res.Engine
		resp.FallbackFrom = res.FallbackFrom
		resp.Rerouted = res.Rerouted
		// A kept result holds no fusion or refusion (they describe one
		// execution); a live one reports them.
		if !rc.cached && (res.Engine == emu.EngineFused || res.Engine == emu.EngineAdaptive) {
			f := res.Fusion
			resp.Fusion = &f
		}
		if !rc.cached && res.Engine == emu.EngineAdaptive {
			rf := res.Refusion
			resp.Refusion = &rf
		}
		resp.Instructions = res.Stats.Instructions
		resp.Transfers = res.Stats.Transfers()
		resp.DataRefs = res.Stats.DataRefs()
		resp.Timing.CompileNS = res.Timing.CompileNS
		resp.Timing.RunNS = res.Timing.RunNS
		s.m.ok.Inc()
		s.emit(w, rc, 200, resp)
		return
	}
	var trap *emu.Trap
	var pe *guard.PanicError
	var refusal *httpError
	switch {
	case errors.As(err, &refusal):
		if refusal.code == 429 {
			s.m.queueFull.Inc()
			w.Header().Set("Retry-After", refusal.retryAfter)
		} else {
			s.m.draining.Inc()
		}
		s.emit(w, rc, refusal.code, &RunResponse{Error: refusal.msg})
	case errors.As(err, &trap):
		resp.Trap = trap
		if trap.Kind == emu.TrapStepBudget {
			s.m.budget.Inc()
			s.emit(w, rc, 422, resp)
			return
		}
		s.m.traps.Inc()
		s.emit(w, rc, 200, resp)
	case errors.Is(err, errInternal), errors.As(err, &pe), errors.Is(err, driver.ErrCompilePanic):
		// A worker panic, an engine panic that exhausted every fallback
		// tier, or a compiler panic cached as an error: the service's
		// bug, never the client's — the only 500s.
		s.m.internal.Inc()
		resp.Error = err.Error()
		s.emit(w, rc, 500, resp)
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Inc()
		resp.Error = fmt.Sprintf("job exceeded the %s execution timeout", s.cfg.JobTimeout)
		s.emit(w, rc, 408, resp)
	default:
		// Everything else the driver can return is a compile or
		// validation failure — the client's program, not the service.
		s.m.badReq.Inc()
		resp.Error = err.Error()
		s.emit(w, rc, 400, resp)
	}
}

// latKey identifies one (status-class, engine) latency histogram set.
// A struct key keeps the hot-path map lookup allocation-free (no name
// concatenation per response).
type latKey struct {
	class  string
	engine string
}

// latencySet holds the four phase histograms of one (class, engine)
// pair, resolved once.
type latencySet struct {
	total   *obs.Histogram
	queue   *obs.Histogram
	compile *obs.Histogram
	run     *obs.Histogram
}

// latencyFor returns the cached histogram handles for a (class,
// engine) pair, constructing the dotted names only on the first
// response of the pair. The cardinality is bounded: three status
// classes times the engine tiers.
func (s *Server) latencyFor(class, engine string) *latencySet {
	key := latKey{class: class, engine: engine}
	s.latMu.RLock()
	ls := s.latSets[key]
	s.latMu.RUnlock()
	if ls != nil {
		return ls
	}
	s.latMu.Lock()
	defer s.latMu.Unlock()
	if ls = s.latSets[key]; ls != nil {
		return ls
	}
	reg := s.cfg.Metrics
	ls = &latencySet{
		total:   reg.Histogram(fmt.Sprintf("serve.latency.total.%s.%s", class, engine)),
		queue:   reg.Histogram(fmt.Sprintf("serve.latency.queue.%s.%s", class, engine)),
		compile: reg.Histogram(fmt.Sprintf("serve.latency.compile.%s.%s", class, engine)),
		run:     reg.Histogram(fmt.Sprintf("serve.latency.run.%s.%s", class, engine)),
	}
	s.latSets[key] = ls
	return ls
}

// emit finalizes one response: stamp the request ID into the body, end
// the root span, record the per-phase serve.latency histograms, offer
// the finished request to the flight recorder, write the structured log
// line, and only then write the body. Keeping all of that on one path
// is what makes "every response is observable" a structural property
// instead of a per-branch obligation.
func (s *Server) emit(w http.ResponseWriter, rc *reqCtx, code int, resp *RunResponse) {
	resp.RequestID = rc.id
	totalNS := time.Since(rc.start).Nanoseconds()
	engine := resp.Engine
	if engine == "" {
		engine = "none"
	}
	ls := s.latencyFor(statusClass(code), engine)
	phases := map[string]int64{"total_ns": totalNS}
	ls.total.Observe(totalNS)
	if t := resp.Timing; t != nil {
		s.m.totalNS.Observe(t.TotalNS)
		phases["queue_ns"] = t.QueueNS
		phases["compile_ns"] = t.CompileNS
		phases["run_ns"] = t.RunNS
		ls.queue.Observe(t.QueueNS)
		ls.compile.Observe(t.CompileNS)
		ls.run.Observe(t.RunNS)
	}
	rc.root.SetArg("status", strconv.Itoa(code))
	if resp.Engine != "" {
		rc.root.SetArg("engine", resp.Engine)
	}
	rc.root.End()
	var trap string
	if resp.Trap != nil {
		trap = resp.Trap.Kind.String()
	}
	s.flight.Offer(obs.RequestRecord{
		ID: rc.id, Time: rc.start, Class: rc.class, Tenant: rc.tenant,
		Status: code, Engine: resp.Engine,
		FallbackFrom: resp.FallbackFrom, Rerouted: resp.Rerouted,
		Coalesced: rc.coalesced, Trap: trap, Error: resp.Error,
		Phases: phases, Spans: rc.rt.Spans(),
	})
	s.logRequest(rc, code, resp, totalNS)
	writeJSON(w, code, resp)
}

// logRequest writes one slog line per logged response. Server errors,
// timeouts, and fallback/reroute-annotated responses always log;
// LogSample > 0 additionally logs every Nth ordinary response.
func (s *Server) logRequest(rc *reqCtx, code int, resp *RunResponse, totalNS int64) {
	n := s.logN.Add(1)
	interesting := code >= 500 || code == 408 || len(resp.FallbackFrom) > 0 || resp.Rerouted
	if !interesting && (s.cfg.LogSample <= 0 || n%int64(s.cfg.LogSample) != 0) {
		return
	}
	lvl := slog.LevelInfo
	switch {
	case code >= 500:
		lvl = slog.LevelError
	case interesting:
		lvl = slog.LevelWarn
	}
	attrs := []any{
		slog.String("id", rc.id),
		slog.Int("status", code),
		slog.Int64("total_us", totalNS/1000),
	}
	if rc.class != "" {
		attrs = append(attrs, slog.String("class", rc.class))
	}
	if rc.tenant != "" {
		attrs = append(attrs, slog.String("tenant", rc.tenant))
	}
	if resp.Engine != "" {
		attrs = append(attrs, slog.String("engine", resp.Engine))
	}
	if len(resp.FallbackFrom) > 0 {
		attrs = append(attrs, slog.Any("fallback_from", resp.FallbackFrom))
	}
	if resp.Rerouted {
		attrs = append(attrs, slog.Bool("rerouted", true))
	}
	if rc.coalesced {
		attrs = append(attrs, slog.Bool("coalesced", true))
	}
	if resp.Error != "" {
		attrs = append(attrs, slog.String("error", resp.Error))
	}
	s.logger.Log(context.Background(), lvl, "request", attrs...)
}

// handleWorkloads lists the built-in suite.
func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	var out []WorkloadInfo
	for _, wl := range workloads.All() {
		out = append(out, WorkloadInfo{Name: wl.Name, Class: wl.Class, Description: wl.Description})
	}
	writeJSON(w, 200, out)
}

// IncidentsReply is the GET /v1/incidents body: the retained incident
// ring (newest first) plus the all-time total, so a consumer can tell
// when the bounded ring has evicted older incidents.
type IncidentsReply struct {
	Total     int64            `json:"total"`
	Incidents []guard.Incident `json:"incidents"`
}

// handleIncidents serves the supervision layer's incident ring:
// engine-tier fallbacks, breaker transitions, and shadow-verification
// mismatches.
func (s *Server) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	incidents, total := s.sup.Incidents()
	writeJSON(w, 200, &IncidentsReply{Total: total, Incidents: incidents})
}

// DebugRequestsReply is the GET /v1/debug/requests body: flight-recorder
// summaries newest-first (span trees stripped — fetch one record by ID
// for its full tree) plus the all-time offered/retained totals, so a
// consumer can tell how selective retention is and whether the bounded
// ring has evicted older records.
type DebugRequestsReply struct {
	Offered  int64               `json:"offered"`
	Retained int64               `json:"retained"`
	Requests []obs.RequestRecord `json:"requests"`
}

// handleDebugRequests serves the flight recorder's retained summaries.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	records, retained, offered := s.flight.Snapshot()
	for i := range records {
		records[i].Spans = nil
	}
	writeJSON(w, 200, &DebugRequestsReply{Offered: offered, Retained: retained, Requests: records})
}

// handleDebugRequest serves one retained request's full record — the
// summary plus its span tree — by request ID.
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.flight.Get(id)
	if !ok {
		writeJSON(w, 404, map[string]string{"error": fmt.Sprintf(
			"no retained request %q: the flight recorder keeps errors, fallbacks, slow requests, and a deterministic sample", id)})
		return
	}
	writeJSON(w, 200, rec)
}

// serverVersion resolves the running build's version: the main module
// version when stamped, else the VCS revision, else "devel".
func serverVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && kv.Value != "" {
			if len(kv.Value) > 12 {
				return kv.Value[:12]
			}
			return kv.Value
		}
	}
	return "devel"
}

// VersionReply is the GET /version body.
type VersionReply struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Started   string `json:"started"`
}

// handleVersion identifies the running build.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, 200, &VersionReply{
		Version:   serverVersion(),
		GoVersion: runtime.Version(),
		Started:   s.start.UTC().Format(time.RFC3339),
	})
}

// handleHealth is the liveness/readiness probe: 200 while serving, 503
// once draining.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", 503)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// MetricsReply is the GET /metrics body: the obs registry snapshot
// (with metricsSnapshot's synthetics: compile-cache memory and Go
// runtime state) plus the compile cache's counters, the server's start
// time and uptime, and the build version. UptimeSeconds predates
// UptimeMS and stays for existing consumers (chaoscheck, benchrecord).
type MetricsReply struct {
	Started       string            `json:"started"`
	UptimeSeconds float64           `json:"uptime_s"`
	UptimeMS      int64             `json:"uptime_ms"`
	Version       string            `json:"version"`
	Cache         driver.CacheStats `json:"cache"`
	// ResultCache reports the admission memo: hit/miss/eviction traffic,
	// byte occupancy and in-flight slots.
	ResultCache *driver.ResultCacheStats `json:"result_cache,omitempty"`
	Metrics     obs.Snapshot             `json:"metrics"`
}

// handleMetrics serves the registry snapshot: JSON by default, the
// Prometheus text exposition format with ?format=prom. Both carry the
// scrape-time synthetics of metricsSnapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metricsSnapshot()
	if r.URL.Query().Get("format") == "prom" {
		snap.Gauges["serve.uptime.ms"] = time.Since(s.start).Milliseconds()
		cs := s.cache.Stats()
		snap.Counters["serve.cache.hits"] = cs.Hits
		snap.Counters["serve.cache.misses"] = cs.Misses
		rs := s.results.Stats()
		snap.Counters["driver.rescache.hits"] = rs.Hits
		snap.Counters["driver.rescache.misses"] = rs.Misses
		snap.Counters["driver.rescache.evictions"] = rs.Evictions
		snap.Counters["driver.rescache.invalidated"] = rs.Invalidated
		snap.Gauges["driver.rescache.bytes"] = rs.Bytes
		snap.Gauges["driver.rescache.entries"] = rs.Entries
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WriteProm(w)
		return
	}
	rs := s.results.Stats()
	writeJSON(w, 200, &MetricsReply{
		Started:       s.start.UTC().Format(time.RFC3339),
		UptimeSeconds: time.Since(s.start).Seconds(),
		UptimeMS:      time.Since(s.start).Milliseconds(),
		Version:       serverVersion(),
		Cache:         s.cache.Stats(),
		ResultCache:   &rs,
		Metrics:       snap,
	})
}

// metricsSnapshot is the registry snapshot plus the values that live
// outside the registry: the compile cache's memory accounting and the Go
// runtime's heap, collector and goroutine state.
func (s *Server) metricsSnapshot() obs.Snapshot {
	snap := s.cfg.Metrics.Snapshot()
	snap.AddRuntime()
	cm := s.cache.MemStats()
	snap.Gauges["driver.compile_cache.bytes"] = cm.Bytes
	snap.Gauges["driver.compile_cache.entries"] = cm.Entries
	snap.Counters["driver.compile_cache.evictions"] = cm.Evictions
	return snap
}

// jsonEnc pairs a reusable buffer with an encoder bound to it, so a
// response costs zero encoder/buffer allocations once the pool is warm.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetEscapeHTML(false)
	return e
}}

// writeJSON encodes v into a pooled buffer and writes it in one shot.
// Encoding before WriteHeader also means an encoding failure (a
// programming error in the reply types) can still answer 500 instead
// of a half-written 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	e := jsonEncPool.Get().(*jsonEnc)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		http.Error(w, "response encoding failed", 500)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = w.Write(e.buf.Bytes())
	}
	if e.buf.Cap() <= poolBufCap {
		jsonEncPool.Put(e)
	}
}
