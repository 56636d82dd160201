package exp

import (
	"fmt"
	"strings"

	"branchreg/internal/cache"
	"branchreg/internal/isa"
)

// SimRow compares the paper's aggregate cycle model against the dynamic
// per-event pipeline simulation for one workload.
type SimRow struct {
	Name          string
	Kind          isa.Kind
	ModelCycles   int64
	SimCycles     int64
	OverchargePct float64
}

// SimTable renders the model-vs-simulation comparison.
func SimTable(rows []SimRow, stages int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cycle model validation (%d stages): the paper's aggregate model vs. a\n", stages)
	fmt.Fprintf(&b, "per-event pipeline simulation (untaken baseline branches cost nothing)\n")
	fmt.Fprintf(&b, "%-12s %-10s %14s %14s %12s\n", "program", "machine", "model cycles", "sim cycles", "model excess")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-10s %14d %14d %11.2f%%\n",
			r.Name, r.Kind, r.ModelCycles, r.SimCycles, r.OverchargePct)
	}
	return b.String()
}

// AlignRow measures the §9 function-alignment suggestion on the cache.
type AlignRow struct {
	AlignWords  int
	DelayCycles int64
	Misses      int64
}

// AlignTable renders the alignment study.
func AlignTable(rows []AlignRow, cfg cache.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Function-entry alignment study (section 9) on %s\n", cfg)
	fmt.Fprintf(&b, "%-22s %14s %12s\n", "layout", "fetch delays", "miss+wait")
	for _, r := range rows {
		name := "unaligned"
		if r.AlignWords > 1 {
			name = fmt.Sprintf("aligned to %d words", r.AlignWords)
		}
		fmt.Fprintf(&b, "%-22s %14d %12d\n", name, r.DelayCycles, r.Misses)
	}
	return b.String()
}
