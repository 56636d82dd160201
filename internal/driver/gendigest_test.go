package driver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"branchreg/internal/isa"
)

// generatedDigestGolden is the combined digest of the programs
// TestGeneratedDigestsPinned compiles. Regenerate it only for a change
// that means to alter emitted code, and say so in CHANGES.md.
const generatedDigestGolden = "b30fa40ad766537647e82c4a6f3e017eb4b93abb8745526a9dc0e24293d12fac"

// TestGeneratedDigestsPinned pins the code emitted for generated
// programs, as TestProgramDigestsPinned does for the suite. Generated
// programs (the shape of serve-unique traffic) reach CSE and
// copy-propagation patterns the suite never does. It compiles 100
// programs from the differential fuzzer's generator on both machines
// and compares one SHA-256 over all their program digests.
func TestGeneratedDigestsPinned(t *testing.T) {
	gen := &progGen{r: rand.New(rand.NewSource(20261018))}
	o := DefaultOptions()
	h := sha256.New()
	for i := 0; i < 100; i++ {
		src := gen.generate()
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(context.Background(), src, kind, o)
			if err != nil {
				t.Fatalf("program %d on %v: %v\n%s", i, kind, err, src)
			}
			d := p.Digest()
			h.Write(d[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatedDigestGolden {
		t.Errorf("combined digest of 100 generated programs is %s, golden %s", got, generatedDigestGolden)
	}
}
