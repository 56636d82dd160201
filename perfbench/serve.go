package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"branchreg/internal/driver"
	"branchreg/internal/isa"
	"branchreg/internal/obs"
	"branchreg/internal/serve"
)

// clients is the closed loop's client count. With one client a
// request's latency is its own service time. With two, on brserve's two
// single-worker shards, a request often waited behind the other client's
// on the same shard, and those waits grew more than the service times
// did when the host slowed: from a fast run to a slow one, serve-suite's
// median rose 32% with two clients and 17% with one.
const clients = 1

// serveOp is one request of a serve workload: the body template of its
// (program, machine), its stdin, and what the harness needs to check and
// replay it.
type serveOp struct {
	tmpl    *bodyTemplate
	src     string // program source (a suite workload's full source)
	input   string
	kind    isa.Kind
	program int  // index of the program in the workload's program list
	noStdin bool // the program reads no stdin (see program)
}

// bodyTemplate is a POST /v1/run body split around its stdin value.
// Requests are built from it as they are sent, into a buffer each client
// reuses, so an op list holds each program's source once rather than in
// every request body.
type bodyTemplate struct{ head, tail []byte }

// stdinMark stands in for the stdin when a template is encoded; it holds
// NUL bytes, which no program source does.
const stdinMark = "\x00stdin\x00"

func newTemplate(rr serve.RunRequest) *bodyTemplate {
	mark := stdinMark
	rr.Input = &mark
	b, enc := encodeRun(rr), encodeRun(mark)
	i := bytes.Index(b, enc)
	return &bodyTemplate{head: b[:i], tail: b[i+len(enc):]}
}

// build appends the body for the given stdin to dst.
func (t *bodyTemplate) build(dst []byte, input string) []byte {
	dst = append(dst, t.head...)
	dst = appendJSONString(dst, input)
	return append(dst, t.tail...)
}

// appendJSONString appends s to dst as a JSON string literal.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&15])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// opRecord is what the closed loop keeps of one response.
type opRecord struct {
	code    int32
	status  int32
	out     uint64 // FNV-1a of the decoded output
	cached  bool
	queueNS int64
	compNS  int64
	runNS   int64
	lat     int64
}

// serveBench is the shared half of the serve workloads: a server built
// with brserve's defaults and a closed loop of clients.
type serveBench struct {
	srv   *serve.Server
	cache *driver.Cache
	prime []serveOp
	ops   []serveOp
	recs  []opRecord
	// tr, when set, puts a span around every ServeHTTP call.
	tr *tracer
}

// setup builds a fresh server and sends the priming requests.
func (b *serveBench) setup() error {
	b.cache = driver.NewCache()
	// The zero Config is brserve's defaults; the compile cache is passed
	// in only so the traced run can read its counters.
	b.srv = serve.New(serve.Config{Cache: b.cache})
	var fail error
	b.loop(b.prime, make([]int64, len(b.prime)), time.Time{}, func(i int, r *opRecord) {
		if r.code != 200 && fail == nil {
			fail = fmt.Errorf("priming request %d: HTTP %d", i, r.code)
		}
	})
	return fail
}

func (b *serveBench) close() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = b.srv.Drain(ctx)
	b.srv = nil
}

// run measures the closed loop for d.
func (b *serveBench) run(d time.Duration) *window {
	return b.timed(d, b.ops, nil)
}

// timed runs one measured window over ops, each sent once, until d is up
// or the ops run out, recording every response in b.recs (indexed like
// ops).
func (b *serveBench) timed(d time.Duration, ops []serveOp, each func(i int, r *opRecord)) *window {
	b.recs = make([]opRecord, len(ops))
	lat := make([]int64, len(ops))
	start := sample()
	w := b.loop(ops, lat, time.Now().Add(d), func(i int, r *opRecord) {
		b.recs[i] = *r
		if each != nil {
			each(i, r)
		}
	})
	start.finish(w)
	return w
}

// loop is the closed loop: clients goroutines each take the next op
// index i, call ServeHTTP on ops[i] and keep its latency in lat[i],
// until the deadline dl (zero: none) or until the ops run out. Request,
// body buffer and reader and response recorder are reused, so the
// harness allocates nothing per op.
func (b *serveBench) loop(ops []serveOp, lat []int64, dl time.Time, each func(i int, r *opRecord)) *window {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	n := len(lat)
	w := &window{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
			body := &reqBody{}
			buf := make([]byte, 0, 64<<10)
			rec := &recorder{h: http.Header{}, buf: make([]byte, 0, 64<<10)}
			var r opRecord
			for {
				// The deadline is read before an index is taken, so the
				// ops sent are always a prefix of the op sequence.
				if !dl.IsZero() && time.Now().After(dl) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op := &ops[i]
				buf = op.tmpl.build(buf[:0], op.input)
				body.Reset(buf)
				req.Body = body
				rec.reset()
				var sp *obs.Span
				if b.tr != nil {
					sp = b.tr.begin("serve.Server.ServeHTTP", 0, i)
				}
				t0 := time.Now()
				b.srv.ServeHTTP(rec, req)
				l := time.Since(t0).Nanoseconds()
				sp.End()
				parseResponse(rec, &r)
				r.lat = l
				lat[i] = l
				mu.Lock()
				w.attempted++
				if r.code != 200 {
					w.failed++
				}
				each(i, &r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.lat = lat[:w.attempted]
	return w
}

// reqBody is a reusable request body.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	buf  []byte
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { r.buf = append(r.buf, p...); return len(p), nil }

func (r *recorder) reset() {
	clear(r.h)
	r.code = http.StatusOK
	r.buf = r.buf[:0]
}

// parseResponse extracts the fields the checks need from a RunResponse
// body without allocating: the HTTP code, the program status, a hash of
// the decoded output, the cached flag and the timing breakdown.
func parseResponse(rec *recorder, r *opRecord) {
	b := rec.buf
	*r = opRecord{code: int32(rec.code), out: fnvEmpty}
	if i := bytes.Index(b, []byte(`"output":"`)); i >= 0 {
		r.out = hashJSONString(b[i+len(`"output":`):])
	}
	r.status = int32(jsonInt(b, `"status":`))
	r.cached = bytes.Contains(b, []byte(`"cached":true`))
	r.queueNS = jsonInt(b, `"queue_ns":`)
	r.compNS = jsonInt(b, `"compile_ns":`)
	r.runNS = jsonInt(b, `"run_ns":`)
}

// jsonInt reads the integer following the first occurrence of key.
func jsonInt(b []byte, key string) int64 {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0
	}
	b = b[i+len(key):]
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	var n int64
	for len(b) > 0 && b[0] >= '0' && b[0] <= '9' {
		n = n*10 + int64(b[0]-'0')
		b = b[1:]
	}
	if neg {
		return -n
	}
	return n
}

const fnvEmpty = 14695981039346656037

// hashString is FNV-1a of s, the form outputs are compared in.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// hashJSONString decodes the JSON string literal at the start of b and
// returns FNV-1a of its bytes, matching hashString of the decoded value.
func hashJSONString(b []byte) uint64 {
	h := uint64(fnvEmpty)
	add := func(c byte) { h = (h ^ uint64(c)) * 1099511628211 }
	for i := 1; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			break
		}
		if c != '\\' || i+1 >= len(b) {
			add(c)
			continue
		}
		i++
		switch b[i] {
		case 'n':
			add('\n')
		case 't':
			add('\t')
		case 'r':
			add('\r')
		case 'b':
			add('\b')
		case 'f':
			add('\f')
		case 'u':
			if i+4 < len(b) {
				v, _ := strconv.ParseUint(string(b[i+1:i+5]), 16, 32)
				var enc [utf8.UTFMax]byte
				n := utf8.EncodeRune(enc[:], rune(v))
				for _, e := range enc[:n] {
					add(e)
				}
				i += 4
			}
		default: // \" \\ \/
			add(b[i])
		}
	}
	return h
}

func encodeRun(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func machineName(k isa.Kind) string {
	if k == isa.Baseline {
		return "baseline"
	}
	return "branchreg"
}

var machines = []isa.Kind{isa.Baseline, isa.BranchReg}
