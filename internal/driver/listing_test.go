package driver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// listingGolden is one SHA-256 over every suite workload's pre-link
// listing and the RTL of each linked instruction, on both machines, as
// TestListingsPinned computes it.
const listingGolden = "f645533da182e873320caae2b51aa592b11682d86b1d1d67e8cd9903ad9b65b8"

// TestListingsPinned pins brcc's two views of a program byte for byte:
// the symbolic listing of the pre-link unit (labels, comments, data
// symbols) and the RTL of every linked instruction, pads included.
func TestListingsPinned(t *testing.T) {
	ctx := context.Background()
	o := DefaultOptions()
	h := sha256.New()
	for _, w := range workloads.All() {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			u, err := Assemble(w.FullSource(), kind, o)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Compile(ctx, w.FullSource(), kind, o)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(h, u.Listing())
			for i := range p.Text {
				in := p.Text[i].Instr()
				io.WriteString(h, in.RTL(kind))
				io.WriteString(h, "\n")
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != listingGolden {
		t.Errorf("combined listing digest is %s, golden %s", got, listingGolden)
	}
}
