// Package serve is the multi-tenant compile-and-run service: an HTTP/JSON
// front end over the unified driver.Request API. One POST carries MC
// source (or a named suite workload), a target machine, compile options,
// stdin, an engine selection, and a step budget; the response carries the
// program's output, dynamic stats, fusion and engine metadata, any typed
// trap, and where the request's wall clock went (queue, compile, run).
//
// The server adds what a long-running service needs on top of driver.Exec:
// admission through a counting semaphore of execution slots, with a
// bounded number of waiting requests and 429 backpressure (each request
// executes on the goroutine that received it), one memo keyed on
// driver.Request.Fingerprint (driver.ResultCache) that answers repeats
// from kept results and lets identical in-flight requests share one
// execution, per-tenant step budgets enforced through the emulator's
// TrapStepBudget machinery, /metrics and /healthz backed by internal/obs,
// and graceful drain for SIGTERM handling. loadgen.go holds the
// load-generator core of cmd/brload.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// RunRequest is the POST /v1/run request body.
type RunRequest struct {
	// Source is the MC program to compile and run. Mutually exclusive
	// with Workload.
	Source string `json:"source,omitempty"`
	// Workload names a program from the built-in 19-workload suite; its
	// source, canonical input, and output hint are filled in server-side.
	Workload string `json:"workload,omitempty"`
	// Machine selects the target: "baseline" or "branchreg" (aliases
	// "brm", "bq"); empty means "branchreg".
	Machine string `json:"machine,omitempty"`
	// Input overrides the program's stdin. For a Workload request a nil
	// Input keeps the workload's canonical input; an explicit empty
	// string clears it.
	Input *string `json:"input,omitempty"`
	// Engine selects the emulator loop: "auto" (default), "adaptive",
	// "fused", "fast", or "step".
	Engine string `json:"engine,omitempty"`
	// Tenant names the caller for per-tenant step-budget caps.
	Tenant string `json:"tenant,omitempty"`
	// StepBudget bounds the run's instruction count. Zero asks for the
	// server default; the effective budget is clamped to the tenant's cap.
	StepBudget int64 `json:"step_budget,omitempty"`
	// NoCache bypasses the memo for this request: it neither reads a
	// kept result, joins an identical request in flight, nor publishes
	// its own, so the response always comes from an execution of its
	// own. Escape hatch for benchmarking and debugging — it cannot
	// change the bytes of a correct response.
	NoCache bool `json:"no_cache,omitempty"`
	// Options overrides individual compile options over the defaults.
	Options *OptionsSpec `json:"options,omitempty"`
}

// OptionsSpec is the JSON form of driver.Options: every field is a
// pointer, nil meaning "keep the default". It deliberately exposes the
// knobs the paper's experiments sweep.
type OptionsSpec struct {
	AlignWords   *int  `json:"align_words,omitempty"`
	BranchRegs   *int  `json:"branch_regs,omitempty"`
	FastCompare  *bool `json:"fast_compare,omitempty"`
	Hoist        *bool `json:"hoist,omitempty"`
	ReplaceNoops *bool `json:"replace_noops,omitempty"`
	Schedule     *bool `json:"schedule,omitempty"`
	LICM         *bool `json:"licm,omitempty"`
}

// apply overlays the non-nil fields on o.
func (s *OptionsSpec) apply(o *driver.Options) {
	if s == nil {
		return
	}
	if s.AlignWords != nil {
		o.AlignWords = *s.AlignWords
	}
	if s.BranchRegs != nil {
		o.BRM.BranchRegs = *s.BranchRegs
	}
	if s.FastCompare != nil {
		o.BRM.FastCompare = *s.FastCompare
	}
	if s.Hoist != nil {
		o.BRM.Hoist = *s.Hoist
	}
	if s.ReplaceNoops != nil {
		o.BRM.ReplaceNoops = *s.ReplaceNoops
	}
	if s.Schedule != nil {
		o.BRM.Schedule = *s.Schedule
	}
	if s.LICM != nil {
		o.Opt.LICM = *s.LICM
	}
}

// Timing is the response's wall-clock breakdown in nanoseconds.
type Timing struct {
	QueueNS   int64 `json:"queue_ns"`
	CompileNS int64 `json:"compile_ns"`
	RunNS     int64 `json:"run_ns"`
	TotalNS   int64 `json:"total_ns"`
}

// RunResponse is the POST /v1/run response body. Exactly one of Output
// (with Status), Trap, or Error carries the outcome: a clean run returns
// 200 with Output; a runtime trap returns 200 (or 422 for a step-budget
// trap) with Trap set; a compile or validation failure returns 4xx with
// Error set. Output, Status, Engine and the instruction counts are a
// function of the request; Fusion, Refusion and Timing describe one
// execution, so a Cached response carries no Fusion or Refusion and
// zero compile and run times.
type RunResponse struct {
	// RequestID is the request's X-Request-Id (generated at admission or
	// echoed from the caller) — the key into GET /v1/debug/requests/{id}.
	RequestID string           `json:"request_id,omitempty"`
	Output    string           `json:"output,omitempty"`
	Status    int32            `json:"status"`
	Machine   string           `json:"machine,omitempty"`
	Engine    string           `json:"engine,omitempty"`
	Fusion    *emu.FusionStats `json:"fusion,omitempty"`
	// Refusion reports whether the execution that produced this
	// response ran (some of) the program's fused form: from the start
	// when the program had run before, or after its first context poll.
	// It depends on the program's earlier runs.
	Refusion     *emu.RefusionStats `json:"refusion,omitempty"`
	Instructions int64              `json:"instructions,omitempty"`
	Transfers    int64              `json:"transfers,omitempty"`
	DataRefs     int64              `json:"data_refs,omitempty"`
	Trap         *emu.Trap          `json:"trap,omitempty"`
	Error        string             `json:"error,omitempty"`
	// Coalesced marks a response served from another identical in-flight
	// request's execution; it did not queue, so its queue_ns is 0.
	Coalesced bool `json:"coalesced,omitempty"`
	// Cached marks a response served from a result the memo kept:
	// identical in its request-determined fields to the execution that
	// produced it, but no emulation ran for this request.
	Cached bool    `json:"cached,omitempty"`
	Timing *Timing `json:"timing,omitempty"`
	// FallbackFrom lists engine tiers that faulted before the tier in
	// Engine served this response (the guard supervision layer's
	// annotation): a fused-engine panic rescued by the fast loop reports
	// Engine "fast" and FallbackFrom ["fused"].
	FallbackFrom []string `json:"fallback_from,omitempty"`
	// Rerouted marks a response whose preferred engine was skipped
	// because its circuit breaker had quarantined the workload class.
	Rerouted bool `json:"rerouted,omitempty"`
}

// WorkloadInfo is one element of the GET /v1/workloads listing.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Description string `json:"description"`
}

// httpError carries a status code out of request building, and a
// leader's admission refusal (429 with its Retry-After, or 503) to the
// requests that joined its slot.
type httpError struct {
	code       int
	msg        string
	retryAfter string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: 400, msg: fmt.Sprintf(format, args...)}
}

// parseMachine maps the wire name to an isa.Kind.
func parseMachine(s string) (isa.Kind, error) {
	switch s {
	case "", "branchreg", "brm":
		return isa.BranchReg, nil
	case "baseline":
		return isa.Baseline, nil
	}
	return 0, badRequest("unknown machine %q (want baseline or branchreg)", s)
}

// parseEngine maps the wire name to an emulator loop mode.
func parseEngine(s string) (emu.LoopMode, error) {
	switch s {
	case "", "auto":
		return emu.LoopAuto, nil
	case "adaptive":
		return emu.LoopAdaptive, nil
	case "fused":
		return emu.LoopFused, nil
	case "fast":
		return emu.LoopFast, nil
	case "step", "instrumented":
		return emu.LoopInstrumented, nil
	}
	return 0, badRequest("unknown engine %q (want auto, adaptive, fused, fast, or step)", s)
}

// buildRequest translates the wire request into a driver.Request plus
// its workload class — the label the guard supervision layer keys
// circuit breakers and shadow sampling on ("sieve/branchreg" for suite
// workloads, "src:<hash>/baseline" for raw source). Errors are
// *httpError values carrying the status to return.
func (s *Server) buildRequest(rr *RunRequest) (driver.Request, string, error) {
	req := driver.Request{Options: driver.DefaultOptions()}
	var classProg string
	switch {
	case rr.Source != "" && rr.Workload != "":
		return req, "", badRequest("source and workload are mutually exclusive")
	case rr.Workload != "":
		w, ok := workloads.ByName(rr.Workload)
		if !ok {
			return req, "", badRequest("unknown workload %q", rr.Workload)
		}
		req.Source = w.FullSource()
		req.Input = w.Input
		req.OutputHint = w.OutputHint
		classProg = w.Name
	case rr.Source != "":
		req.Source = rr.Source
		sum := sha256.Sum256([]byte(rr.Source))
		classProg = "src:" + hex.EncodeToString(sum[:4])
	default:
		return req, "", badRequest("request needs source or workload")
	}
	if max := s.cfg.MaxSourceBytes; max > 0 && len(req.Source) > max {
		return req, "", &httpError{code: 413, msg: fmt.Sprintf("source is %d bytes, limit %d", len(req.Source), max)}
	}
	if rr.Input != nil {
		req.Input = *rr.Input
	}
	var err error
	if req.Kind, err = parseMachine(rr.Machine); err != nil {
		return req, "", err
	}
	if req.Loop, err = parseEngine(rr.Engine); err != nil {
		return req, "", err
	}
	rr.Options.apply(&req.Options)
	if rr.StepBudget < 0 {
		return req, "", badRequest("step_budget must be >= 0, got %d", rr.StepBudget)
	}
	budget := rr.StepBudget
	if budget == 0 {
		budget = s.cfg.DefaultStepBudget
	}
	if cap := s.tenantCap(rr.Tenant); cap > 0 && (budget == 0 || budget > cap) {
		budget = cap
	}
	req.MaxInstructions = budget
	return req, classProg + "/" + req.Kind.String(), nil
}

// tenantCap returns the step-budget ceiling for a tenant: its entry in
// TenantBudgets if present, else the global MaxStepBudget (0 = uncapped).
func (s *Server) tenantCap(tenant string) int64 {
	if cap, ok := s.cfg.TenantBudgets[tenant]; ok {
		return cap
	}
	return s.cfg.MaxStepBudget
}
