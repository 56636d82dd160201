package serve

import (
	"context"
	"fmt"
	"sync"

	"branchreg/internal/driver"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// DifferentialOracle verifies served responses against local
// driver.Exec runs of the same workloads: output, exit status, and
// instruction count must match exactly. Expected results are computed
// once per (workload, machine) cell and shared across clients, so a
// 64-client load run pays for 38 local executions, not thousands.
type DifferentialOracle struct {
	cache *driver.Cache
	mu    sync.Mutex
	cells map[string]*oracleCell
}

type oracleCell struct {
	once sync.Once
	res  *driver.Result
	err  error
}

// NewDifferentialOracle returns an oracle with an empty expectation set.
// Its local driver.Cache has brserve's default compile budget; each
// (workload, machine) cell runs once under its sync.Once, so the oracle
// needs no result memo.
func NewDifferentialOracle() *DifferentialOracle {
	c := driver.NewCache()
	c.SetMaxBytes(cacheHalf(defaultCacheMB))
	return &DifferentialOracle{cache: c, cells: map[string]*oracleCell{}}
}

// Verify is a LoadSpec.Verify callback.
func (o *DifferentialOracle) Verify(workload, machine string, resp *RunResponse) error {
	want, err := o.expected(workload, machine)
	if err != nil {
		return fmt.Errorf("oracle run failed: %w", err)
	}
	if resp.Output != want.Output {
		return fmt.Errorf("output diverges from driver.Exec (%d bytes vs %d)",
			len(resp.Output), len(want.Output))
	}
	if resp.Status != want.Status {
		return fmt.Errorf("status %d diverges from driver.Exec status %d", resp.Status, want.Status)
	}
	if resp.Instructions != want.Stats.Instructions {
		return fmt.Errorf("instruction count %d diverges from driver.Exec count %d",
			resp.Instructions, want.Stats.Instructions)
	}
	return nil
}

// expected runs (workload, machine) locally, once.
func (o *DifferentialOracle) expected(workload, machine string) (*driver.Result, error) {
	key := workload + "/" + machine
	o.mu.Lock()
	c, ok := o.cells[key]
	if !ok {
		c = &oracleCell{}
		o.cells[key] = c
	}
	o.mu.Unlock()
	c.once.Do(func() {
		w, ok := workloads.ByName(workload)
		if !ok {
			c.err = fmt.Errorf("unknown workload %q", workload)
			return
		}
		var kind isa.Kind
		if kind, c.err = parseMachine(machine); c.err != nil {
			return
		}
		c.res, c.err = o.cache.Exec(context.Background(), driver.Request{
			Source: w.FullSource(), Kind: kind, Input: w.Input,
			Options: driver.DefaultOptions(), OutputHint: w.OutputHint,
		})
	})
	return c.res, c.err
}
