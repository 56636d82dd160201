package workloads

// Golden outputs: every workload's output is pinned by hash so silent
// behavioral changes in the compiler, optimizer, code generators or
// emulators are caught immediately. Regenerate by running the generator in
// the commit history (or adapt TestWorkloadsDifferential's reference run)
// if a workload's source or input intentionally changes.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"branchreg/internal/driver"
	"branchreg/internal/isa"
)

type goldenEntry struct {
	sha    string // first 8 bytes of sha256, hex
	length int
	status int32
}

var goldenOutputs = map[string]goldenEntry{
	"cal":       {sha: "f2281a04622e31c8", length: 19020, status: 0},
	"cb":        {sha: "a9ec9db2ffad30b8", length: 7500, status: 0},
	"compact":   {sha: "d49649db380dc001", length: 2444, status: 0},
	"diff":      {sha: "ccda19a21baf086b", length: 43, status: 0},
	"grep":      {sha: "9177c7fa7d6d556d", length: 2809, status: 0},
	"nroff":     {sha: "9fcdc889b0e4bcec", length: 2412, status: 0},
	"od":        {sha: "174e83ba8f040a9f", length: 2556, status: 0},
	"sed":       {sha: "4e3c970eac857082", length: 2412, status: 0},
	"sort":      {sha: "53da3210677e1289", length: 1422, status: 0},
	"spline":    {sha: "a35d1c77317f0d8c", length: 12, status: 0},
	"tr":        {sha: "fe78165655cd4c16", length: 1874, status: 0},
	"wc":        {sha: "d83e8295385c397d", length: 12, status: 0},
	"dhrystone": {sha: "75ee8945b841b7ae", length: 7, status: 0},
	"matmult":   {sha: "49bf6378118cc529", length: 14, status: 0},
	"puzzle":    {sha: "3e8261681f0417b4", length: 23, status: 0},
	"sieve":     {sha: "82a7e55c955b8f04", length: 12, status: 0},
	"whetstone": {sha: "bf3c0cd5fcc87507", length: 12, status: 0},
	"mincost":   {sha: "4525471d6584229e", length: 10, status: 0},
	"tinycc":    {sha: "d6fc82df7acf3d35", length: 31, status: 0},
}

func TestGoldenOutputsPinned(t *testing.T) {
	o := driver.DefaultOptions()
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			g, ok := goldenOutputs[w.Name]
			if !ok {
				t.Fatalf("no golden entry for %s", w.Name)
			}
			res, err := driver.Exec(context.Background(), driver.Request{Source: w.FullSource(), Kind: isa.BranchReg, Input: w.Input, Options: o})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.Output))
			got := fmt.Sprintf("%x", sum[:8])
			if got != g.sha || len(res.Output) != g.length || res.Status != g.status {
				t.Errorf("output changed: sha %s len %d status %d, golden sha %s len %d status %d",
					got, len(res.Output), res.Status, g.sha, g.length, g.status)
			}
		})
	}
}

// goldenDigests pins the generated code itself, not only its output: the
// first 8 bytes of each linked program's (*isa.Program).Digest() under
// the default options, baseline then branch-register machine. A digest
// covers every instruction's operational fields, the data image and the
// function table, so a compiler change that alters any emitted
// instruction fails here even when the program's output stays the same.
// Regenerate by printing the prefixes this test computes, and only when a
// change to the generated code is intended.
var goldenDigests = map[string][2]string{
	"cal":       {"891492dd6d958cb8", "9816b1599c13309d"},
	"cb":        {"2d98ea36dbe81518", "44b19993a6d2ec2d"},
	"compact":   {"13d6930d0ede2d5f", "9f10b0edb27b51ad"},
	"diff":      {"66889ee8cc5ac9f1", "d59be4c3e4d7cd1f"},
	"grep":      {"45ab99a04f842308", "50964bd603967ab6"},
	"nroff":     {"ace447786fe29b81", "f0a45e7515e16b6e"},
	"od":        {"4fb6d54370d47b03", "73537bf5f43c340b"},
	"sed":       {"f9b2236495cebe45", "03b6e9739efbcae1"},
	"sort":      {"22dbec9b69e73106", "b20594022e9522a2"},
	"spline":    {"dbc99dc7dc12be22", "5970153bee355d01"},
	"tr":        {"63adce704aa95a4e", "9a0b711869d428c3"},
	"wc":        {"95af6b0a6b027c3d", "d5875d7c1df1842d"},
	"dhrystone": {"0b0baff6e1a16042", "69d1ee5c0c1aaff9"},
	"matmult":   {"63bb118591cf0ffb", "8f93493e7b693554"},
	"puzzle":    {"99db94fd5e1210b0", "414723ef5d893d19"},
	"sieve":     {"cba91316aee6c605", "ec25e0ede4529ba2"},
	"whetstone": {"e9d3c51eef220ead", "b9af14b1d3199e13"},
	"mincost":   {"54807b4ee47d59e2", "1c082449341a2b37"},
	"tinycc":    {"3a3666e7c51cbd91", "25550decc882aeff"},
}

func TestProgramDigestsPinned(t *testing.T) {
	o := driver.DefaultOptions()
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			g, ok := goldenDigests[w.Name]
			if !ok {
				t.Fatalf("no golden digest for %s", w.Name)
			}
			for i, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
				p, err := driver.Compile(context.Background(), w.FullSource(), kind, o)
				if err != nil {
					t.Fatal(err)
				}
				sum := p.Digest()
				if got := fmt.Sprintf("%x", sum[:8]); got != g[i] {
					t.Errorf("%v: program digest %s, golden %s", kind, got, g[i])
				}
			}
		})
	}
}
