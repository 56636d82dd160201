package exp

import (
	"context"
	"strings"
	"testing"

	"branchreg/internal/cache"
	"branchreg/internal/driver"
	"branchreg/internal/isa"
)

func TestModelValidation(t *testing.T) {
	rows, err := serial().ModelValidation(context.Background(), driver.DefaultOptions(), 3, []string{"wc", "matmult"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		switch r.Kind {
		case isa.Baseline:
			// The paper's model charges untaken branches; it must be an
			// upper bound on the per-event simulation.
			if r.ModelCycles < r.SimCycles {
				t.Errorf("%s: baseline model (%d) below simulation (%d)",
					r.Name, r.ModelCycles, r.SimCycles)
			}
			if r.OverchargePct < 0 {
				t.Errorf("%s: negative overcharge", r.Name)
			}
		case isa.BranchReg:
			// The BRM model is exact: both charge N-3 per conditional plus
			// the Figure 9 late-calc penalty.
			if r.ModelCycles != r.SimCycles {
				t.Errorf("%s: BRM model (%d) != simulation (%d)",
					r.Name, r.ModelCycles, r.SimCycles)
			}
		}
	}
	if !strings.Contains(SimTable(rows, 3), "model excess") {
		t.Error("table header missing")
	}
}

func TestBRMWinsUnderSimulationToo(t *testing.T) {
	// The BRM advantage must not be an artifact of the model's
	// every-transfer charge: compare simulated cycles directly.
	rows, err := serial().ModelValidation(context.Background(), driver.DefaultOptions(), 4, []string{"sieve"})
	if err != nil {
		t.Fatal(err)
	}
	var base, brm int64
	for _, r := range rows {
		if r.Kind == isa.Baseline {
			base = r.SimCycles
		} else {
			brm = r.SimCycles
		}
	}
	if brm >= base {
		t.Errorf("BRM (%d simulated cycles) not faster than baseline (%d)", brm, base)
	}
}

func TestAlignmentStudy(t *testing.T) {
	cfg := cache.Config{LineWords: 8, Sets: 8, Assoc: 2, MissPenalty: 8}
	rows, err := serial().AlignmentStudy(context.Background(), cfg, []string{"wc", "tinycc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AlignWords != 0 || rows[1].AlignWords != cfg.LineWords {
		t.Errorf("row layout wrong: %+v", rows)
	}
	for _, r := range rows {
		if r.DelayCycles <= 0 {
			t.Errorf("alignment row has no delays: %+v", r)
		}
	}
	if !strings.Contains(AlignTable(rows, cfg), "unaligned") {
		t.Error("table missing rows")
	}
}
