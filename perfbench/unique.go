package main

import (
	"fmt"
	"sync"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/irexec"
)

// serveUnique is compile-heavy cold traffic: every request is a distinct
// seeded generated program, alternating between the machines, so every
// compile-cache and result-cache lookup misses and then inserts.
type serveUnique struct {
	serveBench
}

// uniqueOps is how many distinct programs one window sends; the window
// ends when they are all answered or the time is up, whichever is first.
// Each distinct program stays resident (the compile cache never evicts
// and the adaptive tier's state pins every program, about 300 KB each),
// so a fixed count keeps a run's memory the same whatever the host's
// speed, and small enough for a shared host.
const uniqueOps = 1000

// uniquePrime is the number of programs of the priming pass.
const uniquePrime = 64

// sizeStrata is how many strata of program size the generator draws
// from in turn; see strata.
const sizeStrata = 50

func newServeUnique() *serveUnique { return &serveUnique{} }

func (s *serveUnique) prepare(seed int64, _ time.Duration) error {
	g := newGen(seed)
	for i, q := range g.strata(uniquePrime) {
		p := program{src: g.uniqueProgram(q), input: g.genInput()}
		s.prime = append(s.prime, p.request(i, machines[i%2], p.input))
	}
	for i, q := range g.strata(uniqueOps) {
		p := program{src: g.uniqueProgram(q), input: g.genInput()}
		s.ops = append(s.ops, p.request(i, machines[i%2], p.input))
	}
	return nil
}

// strata returns n size quantiles in [0, 1) such that every sizeStrata
// consecutive ones hold one from each of sizeStrata equal strata, in a
// seeded order. Every stretch of the window then carries the same spread
// of program sizes, and seeds differ in the programs, not in how much
// work they are.
func (g *progGen) strata(n int) []float64 {
	var q []float64
	for len(q) < n {
		for _, s := range g.r.Perm(sizeStrata) {
			q = append(q, (float64(s)+g.r.Float64())/sizeStrata)
		}
	}
	return q[:n]
}

// check compares every sent op with the IR interpreter's output for the
// same program and stdin.
func (s *serveUnique) check(w *window) error {
	sent := 0
	for sent < len(s.ops) && s.recs[sent].code != 0 {
		sent++
	}
	var mu sync.Mutex
	var ferr error
	w.failed = 0
	parallel(sent, func(i int) {
		op := &s.ops[i]
		out, status, err := irexecRef(op.src, op.input)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && ferr == nil {
			ferr = fmt.Errorf("reference for op %d: %w", i, err)
		}
		if r := &s.recs[i]; r.code != 200 || r.out != out || r.status != status {
			w.failed++
		}
	})
	return ferr
}

// irexecRef runs a program on the IR interpreter, the reference that
// shares no code with the backends or the emulator.
func irexecRef(src, input string) (uint64, int32, error) {
	iu, err := driver.Lower(src, driver.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	out, status, err := irexec.RunSource(iu, input)
	if err != nil {
		return 0, 0, err
	}
	return hashString(out), status, nil
}

// uniqueLayerProgs is how many of the window's programs the layer
// replay compiles and runs.
const uniqueLayerProgs = 200

func (s *serveUnique) trace(t *tracer, seconds int) (map[string]float64, []layerProg, *window, error) {
	m, w := s.serveTrace(t, seconds)
	var progs []layerProg
	for _, op := range s.ops[:min(uniqueLayerProgs, len(s.ops))] {
		progs = append(progs, layerProg{src: op.src, input: op.input, kind: op.kind})
	}
	return m, progs, w, nil
}
