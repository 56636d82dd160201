// Command gen generates the emulator's block-fused engine (fusedloop.go)
// and its superinstruction table (fusedtab.go) from one template. The
// hand-written fastloop.go is the semantic reference; everything that
// must stay byte-identical to it — micro-op case bodies, trap messages
// and ordering, Stats arithmetic — lives in the shared template defines
// below, so a fix lands in every fused switch site at once instead of
// being hand-copied across them. Each machine's loop expands the
// micro-op switch at two sites: the block body, with the superinstruction
// cases, and the one terminator-op site every terminator kind shares (the
// baseline's delay slot, the BRM's transfer-annotated op).
//
// Usage:
//
//	go run ./gen            (from internal/emu; what //go:generate runs)
//	go run ./internal/emu/gen -dir internal/emu -check
//
// -check regenerates in memory and fails if any committed file drifts
// from the template (the `make generate-check` CI rule). Both modes fail
// on a file in the package that carries the generated-code mark but is no
// longer generated: it would still compile, unused, and pass the drift
// check, so it must be deleted by hand.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/template"
)

// caseCtx parameterizes the shared micro-op case bodies for one switch
// site: how a trap syncs machine state (Pend/PC), which machine's op set
// is live (Brm), and whether fused superinstruction pairs can appear
// (Body).
type caseCtx struct {
	Pend string // expression assigned to m.pending before a trap ("" = none)
	PC   string // trap program-counter expression
	Brm  bool   // BRM micro-ops are live (and `now` is in scope)
	Body bool   // fused block body: include superinstruction pair cases
}

var funcs = template.FuncMap{
	"cases": func(pend, pc string, brm, body bool) caseCtx {
		return caseCtx{Pend: pend, PC: pc, Brm: brm, Body: body}
	},
	// trap emits the fast loop's trap sequence for the context: optional
	// m.pending sync, then fastTrap at the context's program counter.
	"trap": func(c caseCtx, kind, format string, args ...string) string {
		s := ""
		if c.Pend != "" {
			s = "m.pending = " + c.Pend + "\n"
		}
		s += "return 0, m.fastTrap(" + c.PC + ", insts, " + kind + ", " + strconv.Quote(format)
		for _, a := range args {
			s += ", " + a
		}
		return s + ")"
	},
	// fastLoop names the per-instruction loop a fused run of the
	// context's machine delegates to.
	"fastLoop": func(c caseCtx) string {
		if c.Brm {
			return "m.runFastBRM(ctx)"
		}
		return "m.runFastBaseline(ctx)"
	},
	// fusedCases expands the superinstruction selection (pairSel,
	// tripleSel) into switch cases for one machine's fused block body.
	"fusedCases": func(c caseCtx) string {
		return fusedCases(c.Brm)
	},
}

// ---------------------------------------------------------------------
// Fused superinstruction selection.
//
// The fused engine rewrites hot adjacent micro-op pairs and triples into
// single dispatch cases. The vocabulary below gives each candidate
// component's code as a function of its operand slot (first, second or
// third position of the fuop), and pairSel/tripleSel pick the
// combinations worth a case. The selection is data-driven: it is the
// union of the hottest dynamic adjacencies over the 19-workload suite on
// both machines as measured by cmd/fusepairs (every entry ≥ ~1% of
// suite instructions, or ≥ 2% of the sieve benchmark workload); DESIGN
// §10 records the numbers. gen emits both the dispatch cases
// (fusedCases) and the decode-time lookup tables (fusedtab.go), so the
// selection cannot drift between decoder and engine.
// ---------------------------------------------------------------------

// slotRefs names the fuop fields holding one component's operands.
type slotRefs struct {
	imm, rd, rs1, rs2, pc string
}

var slots = [3]slotRefs{
	{imm: "u.imm", rd: "u.rd", rs1: "u.rs1", rs2: "u.rs2", pc: "int(u.pc)"},
	{imm: "u.imm2", rd: "u.rd2", rs1: "u.rs21", rs2: "u.rs22", pc: "int(u.pc)+1"},
	{imm: "u.imm3", rd: "u.rd3", rs1: "u.rs31", rs2: "u.rs32", pc: "int(u.pc)+2"},
}

// fusedOp is one vocabulary component: the micro-op kind it rewrites,
// which machine's loops can inline it, and its code over an operand
// slot. Components that trap report the slot's original Text index, so
// fused trap diagnostics stay byte-identical to the fast loop's.
type fusedOp struct {
	label string // CamelCase fragment of the fused kind constant
	kind  string // standalone uopKind constant
	brm   bool   // BRM-only: reads `now` or branch registers
	base  bool   // baseline-only: writes the condition code
	now   bool   // needs `now = insts` refreshed mid-superinstruction
	cond  bool   // uses the fuop's shared cond/bsrc rider fields
	code  func(s slotRefs) string
}

var vocab = map[string]fusedOp{
	"addi": {label: "Addi", kind: "uAddImm", code: func(s slotRefs) string {
		return fmt.Sprintf("if %s != 0 {\nR[%s] = R[%s] + %s\n}", s.rd, s.rd, s.rs1, s.imm)
	}},
	"add": {label: "Add", kind: "uAddReg", code: func(s slotRefs) string {
		return fmt.Sprintf("if %s != 0 {\nR[%s] = R[%s] + R[%s]\n}", s.rd, s.rd, s.rs1, s.rs2)
	}},
	"slli": {label: "Slli", kind: "uSllImm", code: func(s slotRefs) string {
		return fmt.Sprintf("if %s != 0 {\nR[%s] = R[%s] << (uint32(%s) & 31)\n}", s.rd, s.rd, s.rs1, s.imm)
	}},
	"ori": {label: "Ori", kind: "uOrImm", code: func(s slotRefs) string {
		return fmt.Sprintf("if %s != 0 {\nR[%s] = R[%s] | %s\n}", s.rd, s.rd, s.rs1, s.imm)
	}},
	"const": {label: "Const", kind: "uConst", code: func(s slotRefs) string {
		return fmt.Sprintf("if %s != 0 {\nR[%s] = %s\n}", s.rd, s.rd, s.imm)
	}},
	"lwi": {label: "Lwi", kind: "uLwImm", code: func(s slotRefs) string {
		return fmt.Sprintf(`st.Loads++
{
a := R[%s] + %s
if a < 0 || int(a)+4 > len(mem) {
return 0, m.fastTrap(%s, insts, TrapOOBLoad, "load out of range: %%#x", uint32(a))
}
if a%%isa.WordSize != 0 {
return 0, m.fastTrap(%s, insts, TrapMisaligned, "misaligned word load: %%#x", uint32(a))
}
if %s != 0 {
R[%s] = int32(binary.LittleEndian.Uint32(mem[a:]))
}
}`, s.rs1, s.imm, s.pc, s.pc, s.rd, s.rd)
	}},
	"lbi": {label: "Lbi", kind: "uLbImm", code: func(s slotRefs) string {
		return fmt.Sprintf(`st.Loads++
{
a := R[%s] + %s
if a < 0 || int(a) >= len(mem) {
return 0, m.fastTrap(%s, insts, TrapOOBLoad, "byte load out of range: %%#x", uint32(a))
}
if %s != 0 {
R[%s] = int32(int8(mem[a]))
}
}`, s.rs1, s.imm, s.pc, s.rd, s.rd)
	}},
	"swi": {label: "Swi", kind: "uSwImm", code: func(s slotRefs) string {
		return fmt.Sprintf(`st.Stores++
{
a := R[%s] + %s
if a < 0 || int(a)+4 > len(mem) {
return 0, m.fastTrap(%s, insts, TrapOOBStore, "store out of range: %%#x", uint32(a))
}
if a%%isa.WordSize != 0 {
return 0, m.fastTrap(%s, insts, TrapMisaligned, "misaligned word store: %%#x", uint32(a))
}
binary.LittleEndian.PutUint32(mem[a:], uint32(R[%s]))
}`, s.rs1, s.imm, s.pc, s.pc, s.rd)
	}},
	"sbi": {label: "Sbi", kind: "uSbImm", code: func(s slotRefs) string {
		return fmt.Sprintf(`st.Stores++
{
a := R[%s] + %s
if a < 0 || int(a) >= len(mem) {
return 0, m.fastTrap(%s, insts, TrapOOBStore, "byte store out of range: %%#x", uint32(a))
}
mem[a] = byte(R[%s])
}`, s.rs1, s.imm, s.pc, s.rd)
	}},
	"lfi": {label: "Lfi", kind: "uLfImm", code: func(s slotRefs) string {
		return fmt.Sprintf(`st.Loads++
{
a := R[%s] + %s
if a < 0 || int(a)+8 > len(mem) {
return 0, m.fastTrap(%s, insts, TrapOOBLoad, "float load out of range: %%#x", uint32(a))
}
F[%s] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
}`, s.rs1, s.imm, s.pc, s.rd)
	}},
	"fmul": {label: "Fmul", kind: "uFmul", code: func(s slotRefs) string {
		return fmt.Sprintf("F[%s] = F[%s] * F[%s]", s.rd, s.rs1, s.rs2)
	}},
	"fadd": {label: "Fadd", kind: "uFadd", code: func(s slotRefs) string {
		return fmt.Sprintf("F[%s] = F[%s] + F[%s]", s.rd, s.rs1, s.rs2)
	}},
	"cmpi": {label: "Cmpi", kind: "uCmpImm", base: true, code: func(s slotRefs) string {
		return fmt.Sprintf("m.CC = signOf(R[%s], %s)", s.rs1, s.imm)
	}},
	"cmp": {label: "Cmp", kind: "uCmpReg", base: true, code: func(s slotRefs) string {
		return fmt.Sprintf("m.CC = signOf(R[%s], R[%s])", s.rs1, s.rs2)
	}},
	"cmpbri": {label: "Cmpbri", kind: "uCmpBrImm", brm: true, now: true, cond: true, code: func(s slotRefs) string {
		return fmt.Sprintf(`if isa.Cond(u.cond).HoldsInt(R[%s], %s) {
src := m.B[u.bsrc]
m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
} else {
m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
}`, s.rs1, s.imm)
	}},
	"cmpbr": {label: "Cmpbr", kind: "uCmpBrReg", brm: true, now: true, cond: true, code: func(s slotRefs) string {
		return fmt.Sprintf(`if isa.Cond(u.cond).HoldsInt(R[%s], R[%s]) {
src := m.B[u.bsrc]
m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
} else {
m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
}`, s.rs1, s.rs2)
	}},
	"brcalc": {label: "Brcalc", kind: "uBrCalcAbs", brm: true, now: true, code: func(s slotRefs) string {
		return fmt.Sprintf("st.BrCalcs++\nm.B[%s] = breg{addr: %s, calcTime: now, valid: true}", s.rd, s.imm)
	}},
}

// pairSel and tripleSel are the fused superinstruction selection, in
// kind-constant order (fusedtab.go assigns codes 128+iota in this
// order). Pairs are the greedy fallback where no triple matches.
var pairSel = [][]string{
	{"const", "addi"}, {"slli", "add"}, {"addi", "add"}, {"add", "lwi"},
	{"addi", "slli"}, {"add", "addi"}, {"add", "slli"}, {"addi", "sbi"},
	{"lwi", "cmpi"}, {"lwi", "cmp"}, {"lwi", "cmpbri"}, {"lwi", "cmpbr"},
	{"add", "lfi"}, {"sbi", "add"}, {"sbi", "addi"}, {"fmul", "fadd"},
	{"lfi", "const"}, {"const", "cmpbr"}, {"const", "cmpbri"},
	{"lbi", "cmpi"}, {"lbi", "cmpbri"}, {"add", "lbi"},
	{"brcalc", "addi"}, {"brcalc", "const"},
	{"addi", "ori"}, {"add", "ori"}, {"const", "lwi"}, {"lwi", "addi"},
	{"lwi", "add"}, {"lwi", "lwi"}, {"addi", "swi"}, {"add", "swi"},
	{"swi", "swi"}, {"swi", "lwi"}, {"addi", "lwi"},
}

var tripleSel = [][]string{
	{"const", "addi", "add"}, {"slli", "add", "lwi"}, {"addi", "slli", "add"},
	{"const", "addi", "slli"}, {"add", "slli", "add"}, {"addi", "add", "addi"},
	{"add", "addi", "sbi"}, {"add", "lwi", "cmpi"}, {"add", "lwi", "cmpbri"},
	{"slli", "add", "slli"}, {"addi", "add", "lfi"}, {"addi", "sbi", "add"},
	{"addi", "sbi", "addi"}, {"addi", "add", "lbi"}, {"add", "lbi", "cmpi"},
	{"add", "lbi", "cmpbri"}, {"brcalc", "const", "addi"},
}

// fusedSelections returns every selection, pairs then triples, in kind
// order.
func fusedSelections() [][]string {
	return append(append([][]string{}, pairSel...), tripleSel...)
}

func fusedKindName(ops []string) string {
	name := "f"
	for _, op := range ops {
		name += vocab[op].label
	}
	return name
}

// validateSelections panics on a selection the engine could not execute
// correctly: unknown vocabulary, a component set spanning both machines,
// or two components competing for the shared cond/bsrc rider fields.
func validateSelections() {
	seen := map[string]bool{}
	for _, ops := range fusedSelections() {
		brm, base, conds := false, false, 0
		for _, op := range ops {
			spec, ok := vocab[op]
			if !ok {
				panic("gen: selection uses unknown component " + op)
			}
			brm = brm || spec.brm
			base = base || spec.base
			if spec.cond {
				conds++
			}
		}
		name := fusedKindName(ops)
		if brm && base {
			panic("gen: selection " + name + " mixes machine-specific components")
		}
		if conds > 1 {
			panic("gen: selection " + name + " has two cond/bsrc users")
		}
		if seen[name] {
			panic("gen: duplicate selection " + name)
		}
		seen[name] = true
	}
	if n := len(fusedSelections()); 128+n > 256 {
		panic(fmt.Sprintf("gen: %d fused kinds overflow uopKind", n))
	}
}

// fusedCases emits the dispatch cases of every selection that fits the
// given machine. Components after the first re-count insts (and refresh
// `now` if they need it) so budget and trap accounting stay exact.
func fusedCases(brm bool) string {
	var sb strings.Builder
	for _, ops := range fusedSelections() {
		fits := true
		for _, op := range ops {
			if spec := vocab[op]; (spec.brm && !brm) || (spec.base && brm) {
				fits = false
			}
		}
		if !fits {
			continue
		}
		fmt.Fprintf(&sb, "case %s:\n", fusedKindName(ops))
		for i, op := range ops {
			spec := vocab[op]
			if i > 0 {
				sb.WriteString("insts++\n")
				if spec.now {
					sb.WriteString("now = insts\n")
				}
			}
			sb.WriteString(spec.code(slots[i]) + "\n")
		}
		fmt.Fprintf(&sb, "m.Fusion.Fused += %d\n", len(ops)-1)
	}
	return sb.String()
}

// fusedTab emits fusedtab.go: the fused kind constants and the
// decode-time pair/triple lookups used by buildFprog.
func fusedTab() string {
	var sb strings.Builder
	sb.WriteString(fusedTabHeader)
	sb.WriteString("const (\n")
	for i, ops := range fusedSelections() {
		if i == 0 {
			fmt.Fprintf(&sb, "%s uopKind = 128 + iota\n", fusedKindName(ops))
		} else {
			sb.WriteString(fusedKindName(ops) + "\n")
		}
	}
	sb.WriteString(")\n\n")
	sb.WriteString(`// fusePair reports the fused kind for an adjacent body pair, if the
// pair is in the selection.
func fusePair(a, b uopKind) (uopKind, bool) {
switch {
`)
	for _, ops := range pairSel {
		fmt.Fprintf(&sb, "case a == %s && b == %s:\nreturn %s, true\n",
			vocab[ops[0]].kind, vocab[ops[1]].kind, fusedKindName(ops))
	}
	sb.WriteString(`}
return 0, false
}

// fuseTriple reports the fused kind for an adjacent body triple, if the
// triple is in the selection. Triples are tried before pairs.
func fuseTriple(a, b, c uopKind) (uopKind, bool) {
switch {
`)
	for _, ops := range tripleSel {
		fmt.Fprintf(&sb, "case a == %s && b == %s && c == %s:\nreturn %s, true\n",
			vocab[ops[0]].kind, vocab[ops[1]].kind, vocab[ops[2]].kind, fusedKindName(ops))
	}
	sb.WriteString(`}
return 0, false
}
`)
	return sb.String()
}

func render(t *template.Template, name string) string {
	var buf bytes.Buffer
	if err := t.ExecuteTemplate(&buf, name, nil); err != nil {
		panic(err)
	}
	return buf.String()
}

func main() {
	dir := flag.String("dir", ".", "package directory to generate into")
	check := flag.Bool("check", false, "verify committed files match the template instead of writing")
	flag.Parse()

	validateSelections()
	t := template.Must(template.New("loops").Funcs(funcs).Parse(loopTemplate))

	files := map[string]string{
		"fusedtab.go": fusedTab(),
		"fusedloop.go": fusedHeader +
			render(t, "fusedBaseline") + "\n" + render(t, "fusedBRM"),
	}

	bad := false
	for name, raw := range files {
		src, err := format.Source([]byte(raw))
		if err != nil {
			fmt.Fprintf(os.Stderr, "gen: %s does not format: %v\n", name, err)
			dumpNumbered(raw)
			os.Exit(1)
		}
		path := filepath.Join(*dir, name)
		if *check {
			have, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gen: -check: %s: %v (run `go generate ./internal/emu`)\n", name, err)
				bad = true
				continue
			}
			if !bytes.Equal(have, src) {
				fmt.Fprintf(os.Stderr, "gen: -check: %s drifted from the template (run `go generate ./internal/emu`)\n", name)
				bad = true
			}
			continue
		}
		if err := os.WriteFile(path, src, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "gen: %v\n", err)
			os.Exit(1)
		}
	}
	for _, name := range staleFiles(*dir, files) {
		fmt.Fprintf(os.Stderr, "gen: %s carries the generated-code mark but is no longer generated; delete it\n", name)
		bad = true
	}
	if bad {
		os.Exit(1)
	}
}

// staleFiles returns the package's .go files that start with genMark but
// are not among the generated files: output of a template the generator
// no longer renders.
func staleFiles(dir string, files map[string]string) []string {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gen: %v\n", err)
		os.Exit(1)
	}
	var stale []string
	for _, path := range paths {
		name := filepath.Base(path)
		if _, ok := files[name]; ok {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gen: %v\n", err)
			os.Exit(1)
		}
		if bytes.HasPrefix(src, []byte(genMark)) {
			stale = append(stale, name)
		}
	}
	return stale
}

func dumpNumbered(s string) {
	for i, line := range bytes.Split([]byte(s), []byte("\n")) {
		fmt.Fprintf(os.Stderr, "%4d %s\n", i+1, line)
	}
}

const genMark = "// Code generated by branchreg/internal/emu/gen. DO NOT EDIT.\n"

const fusedHeader = genMark + `
package emu

// The block-fused execution engine (LoopFused): basic blocks are executed
// straight-line with one up-front step-budget check amortized over the
// block, and chained through pre-linked successor block indices — no
// per-instruction bounds test, budget test, or PC-to-index lookup. Blocks
// the engine cannot run exactly (irregular delay slots, a step budget
// within reach, transfers landing inside a block) are delegated to the
// per-instruction fast loop, which reproduces the instrumented engine's
// accounting to the byte. See blockdecode.go for the block construction
// rules and DESIGN §10 for the design.
//
// A block's terminator executes its op at one site per machine. On the
// baseline a switch on the terminator kind arms the transfer (its
// counts, the target the delay slot sees as m.pending, and the
// successor); then the one delay-slot switch and the one successor step
// run. On the BRM a fused companion (cmpbr or brcalc) retires first, then
// the one transfer-op switch, then a switch on the terminator kind
// applies the transfer before the same successor step.

import (
	"context"
	"encoding/binary"

	"branchreg/internal/isa"
)

`

const fusedTabHeader = genMark + `
package emu

// The fused superinstruction table: kind constants and the decode-time
// pair/triple lookups used by buildFprog (blockdecode.go). The selection
// lives in gen/main.go (pairSel, tripleSel) and is data-driven: the
// hottest dynamic adjacencies over the 19-workload suite on both
// machines, measured by cmd/fusepairs (DESIGN §10 records the numbers).
// Fused kinds extend uopKind past the predecoded set (predecode.go) and
// appear only in fuop bodies, never in m.dec.

`

const loopTemplate = `
{{/* ---------------------------------------------------------------- */}}
{{/* dataCases: every non-control micro-op case, shared by all loops.  */}}
{{/* ---------------------------------------------------------------- */}}
{{define "dataCases"}}
case uNop:
	st.Noops++
case uAddImm:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] + u.imm
	}
case uAddReg:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] + R[u.rs2]
	}
case uSubImm:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] - u.imm
	}
case uSubReg:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] - R[u.rs2]
	}
case uMulImm:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] * u.imm
	}
case uMulReg:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] * R[u.rs2]
	}
case uDivImm, uDivReg:
	d := u.imm
	if u.kind == uDivReg {
		d = R[u.rs2]
	}
	if d == 0 {
		{{trap . "TrapArithmetic" "division by zero"}}
	}
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] / d
	}
case uRemImm, uRemReg:
	d := u.imm
	if u.kind == uRemReg {
		d = R[u.rs2]
	}
	if d == 0 {
		{{trap . "TrapArithmetic" "modulo by zero"}}
	}
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] % d
	}
case uAndImm:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] & u.imm
	}
case uAndReg:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] & R[u.rs2]
	}
case uOrImm:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] | u.imm
	}
case uOrReg:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] | R[u.rs2]
	}
case uXorImm:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] ^ u.imm
	}
case uXorReg:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] ^ R[u.rs2]
	}
case uSllImm:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] << (uint32(u.imm) & 31)
	}
case uSllReg:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] << (uint32(R[u.rs2]) & 31)
	}
case uSrlImm:
	if u.rd != 0 {
		R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(u.imm) & 31))
	}
case uSrlReg:
	if u.rd != 0 {
		R[u.rd] = int32(uint32(R[u.rs1]) >> (uint32(R[u.rs2]) & 31))
	}
case uSraImm:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] >> (uint32(u.imm) & 31)
	}
case uSraReg:
	if u.rd != 0 {
		R[u.rd] = R[u.rs1] >> (uint32(R[u.rs2]) & 31)
	}
case uConst:
	if u.rd != 0 {
		R[u.rd] = u.imm
	}
case uSetImm, uSetReg:
	b := u.imm
	if u.kind == uSetReg {
		b = R[u.rs2]
	}
	v := int32(0)
	if isa.Cond(u.cond).HoldsInt(R[u.rs1], b) {
		v = 1
	}
	if u.rd != 0 {
		R[u.rd] = v
	}
case uFSet:
	v := int32(0)
	if isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2]) {
		v = 1
	}
	if u.rd != 0 {
		R[u.rd] = v
	}

case uLwImm, uLwReg:
	st.Loads++
	a := R[u.rs1] + u.imm
	if u.kind == uLwReg {
		a = R[u.rs1] + R[u.rs2]
	}
	if a < 0 || int(a)+4 > len(mem) {
		{{trap . "TrapOOBLoad" "load out of range: %#x" "uint32(a)"}}
	}
	if a%isa.WordSize != 0 {
		{{trap . "TrapMisaligned" "misaligned word load: %#x" "uint32(a)"}}
	}
	if u.rd != 0 {
		R[u.rd] = int32(binary.LittleEndian.Uint32(mem[a:]))
	}
case uLbImm, uLbReg:
	st.Loads++
	a := R[u.rs1] + u.imm
	if u.kind == uLbReg {
		a = R[u.rs1] + R[u.rs2]
	}
	if a < 0 || int(a) >= len(mem) {
		{{trap . "TrapOOBLoad" "byte load out of range: %#x" "uint32(a)"}}
	}
	if u.rd != 0 {
		R[u.rd] = int32(int8(mem[a]))
	}
case uSwImm, uSwReg:
	st.Stores++
	a := R[u.rs1] + u.imm
	if u.kind == uSwReg {
		a = R[u.rs1] + R[u.rs2]
	}
	if a < 0 || int(a)+4 > len(mem) {
		{{trap . "TrapOOBStore" "store out of range: %#x" "uint32(a)"}}
	}
	if a%isa.WordSize != 0 {
		{{trap . "TrapMisaligned" "misaligned word store: %#x" "uint32(a)"}}
	}
	binary.LittleEndian.PutUint32(mem[a:], uint32(R[u.rd]))
case uSbImm, uSbReg:
	st.Stores++
	a := R[u.rs1] + u.imm
	if u.kind == uSbReg {
		a = R[u.rs1] + R[u.rs2]
	}
	if a < 0 || int(a) >= len(mem) {
		{{trap . "TrapOOBStore" "byte store out of range: %#x" "uint32(a)"}}
	}
	mem[a] = byte(R[u.rd])
case uLfImm, uLfReg:
	st.Loads++
	a := R[u.rs1] + u.imm
	if u.kind == uLfReg {
		a = R[u.rs1] + R[u.rs2]
	}
	if a < 0 || int(a)+8 > len(mem) {
		{{trap . "TrapOOBLoad" "float load out of range: %#x" "uint32(a)"}}
	}
	F[u.rd] = isa.FloatFromBits(binary.LittleEndian.Uint64(mem[a:]))
case uSfImm, uSfReg:
	st.Stores++
	a := R[u.rs1] + u.imm
	if u.kind == uSfReg {
		a = R[u.rs1] + R[u.rs2]
	}
	if a < 0 || int(a)+8 > len(mem) {
		{{trap . "TrapOOBStore" "float store out of range: %#x" "uint32(a)"}}
	}
	binary.LittleEndian.PutUint64(mem[a:], isa.FloatBits(F[u.rd]))

case uFadd:
	F[u.rd] = F[u.rs1] + F[u.rs2]
case uFsub:
	F[u.rd] = F[u.rs1] - F[u.rs2]
case uFmul:
	F[u.rd] = F[u.rs1] * F[u.rs2]
case uFdiv:
	F[u.rd] = F[u.rs1] / F[u.rs2]
case uFneg:
	F[u.rd] = -F[u.rs1]
case uFmov:
	F[u.rd] = F[u.rs1]
case uCvtif:
	F[u.rd] = float64(R[u.rs1])
case uCvtfi:
	if u.rd != 0 {
		R[u.rd] = int32(F[u.rs1])
	}
case uTrapGetc:
	if m.inPos >= len(m.input) {
		R[1] = -1
	} else {
		R[1] = int32(m.input[m.inPos])
		m.inPos++
	}
case uTrapPutc:
	m.out.WriteByte(byte(R[1]))
case uTrapPutf:
	m.putFloat(F[1])
case uTrapBad:
	{{trap . "TrapIllegalInstr" "unknown trap %d" "u.imm"}}
{{if not .Brm}}
case uCmpImm, uCmpReg:
	b := u.imm
	if u.kind == uCmpReg {
		b = R[u.rs2]
	}
	m.CC = signOf(R[u.rs1], b)
case uFcmp:
	a, b := F[u.rs1], F[u.rs2]
	switch {
	case a < b:
		m.CC = -1
	case a > b:
		m.CC = 1
	default:
		m.CC = 0
	}
{{end}}
{{if .Brm}}
case uBrCalcAbs:
	st.BrCalcs++
	m.B[u.rd] = breg{addr: u.imm, calcTime: now, valid: true}
case uBrCalcReg:
	st.BrCalcs++
	m.B[u.rd] = breg{addr: R[u.rs1] + u.imm, calcTime: now, valid: true}
case uBrLd:
	st.BrCalcs++
	st.Loads++
	a := R[u.rs1] + u.imm
	if a < 0 || int(a)+4 > len(mem) {
		{{trap . "TrapOOBLoad" "load out of range: %#x" "uint32(a)"}}
	}
	if a%isa.WordSize != 0 {
		{{trap . "TrapMisaligned" "misaligned word load: %#x" "uint32(a)"}}
	}
	v := int32(binary.LittleEndian.Uint32(mem[a:]))
	m.B[u.rd] = breg{addr: v, calcTime: now, valid: true}
case uCmpBrImm, uCmpBrReg:
	b := u.imm
	if u.kind == uCmpBrReg {
		b = R[u.rs2]
	}
	if isa.Cond(u.cond).HoldsInt(R[u.rs1], b) {
		src := m.B[u.bsrc]
		m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
	} else {
		m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
	}
case uFCmpBr:
	if isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2]) {
		src := m.B[u.bsrc]
		m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
	} else {
		m.B[isa.RABr] = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
	}
case uMovBr:
	st.BrMoves++
	m.B[u.rd] = m.B[u.bsrc]
case uMovRB:
	st.BrMoves++
	if u.rd != 0 {
		R[u.rd] = m.B[u.bsrc].addr
	}
case uMovBR:
	st.BrMoves++
	m.B[u.rd] = breg{addr: R[u.rs1], calcTime: now, isRA: true, valid: true}
{{end}}
{{if .Body}}{{fusedCases .}}{{end}}

default: {{if .Brm}}// uIllegal and any baseline-only op
	{{trap . "TrapIllegalInstr" "BRM cannot execute %v" "isa.Op(u.imm)"}}{{else}}// uIllegal and any BRM-only op
	{{trap . "TrapIllegalInstr" "baseline cannot execute %v" "isa.Op(u.imm)"}}{{end}}
{{end}}

{{/* ---------------------------------------------------------------- */}}
{{/* fallThrough: advance to the fall-through successor block.         */}}
{{/* ---------------------------------------------------------------- */}}
{{define "fallThrough" -}}
	bi = b.fall
	if bi < 0 {
		{{template "fallOut" .}}
	}
{{- end}}

{{/* ---------------------------------------------------------------- */}}
{{/* fallOut: leave the fused form for a fall-through successor that    */}}
{{/* is not a block (bi is b.fall's succTrap or succInner sentinel).    */}}
{{/* ---------------------------------------------------------------- */}}
{{define "fallOut" -}}
	if bi == succTrap {
		return 0, m.fastTrap(int(b.fallIdx), insts, TrapPCOutOfRange,
			"pc index %d outside text [0,%d)", int(b.fallIdx), n)
	}
	m.pc = int(b.fallIdx)
	st.Instructions = insts
	m.Fusion.Bails++
	return {{fastLoop .}}
{{- end}}

{{/* ---------------------------------------------------------------- */}}
{{/* exit: the trap exit terminator (its op retires here, then halt).   */}}
{{/* ---------------------------------------------------------------- */}}
{{define "exit" -}}
	insts++
	m.halted = true
	m.status = R[1]
	m.pc = int(b.termPC)
	st.Instructions = insts
	return m.status, nil
{{- end}}

{{/* ---------------------------------------------------------------- */}}
{{/* successor: the one successor step after a transfer. Expects next  */}}
{{/* (a block index or a succ* sentinel), untaken (next is b.fall) and  */}}
{{/* pend (the target Text index, for diagnostics and delegation).     */}}
{{/* .PC is the transfer's Text index, where a halt or trap lands.     */}}
{{/* ---------------------------------------------------------------- */}}
{{define "successor" -}}
	bi = next
	if bi < 0 {
		if untaken {
			{{template "fallOut" .}}
		}
		switch bi {
		case succHalt:
			m.halted = true
			m.status = R[1]
			m.pc = {{.PC}}
			st.Instructions = insts
			return m.status, nil
		case succTrap:
			return 0, m.fastTrap({{.PC}}, insts, TrapPCOutOfRange, "jump out of text: index %d", pend)
		default: // succInner
			m.pc = pend
			st.Instructions = insts
			m.Fusion.Bails++
			return {{fastLoop .}}
		}
	}
{{- end}}

{{/* ---------------------------------------------------------------- */}}
{{/* prefetch: record a taken BRM transfer's prefetch distance (the    */}}
{{/* int64 local dist) in DistHist and the prefetch hit/miss counts.   */}}
{{/* ---------------------------------------------------------------- */}}
{{define "prefetch" -}}
	if dist > DistHistMax {
		st.DistHist[DistHistMax]++
	} else if dist >= 0 {
		st.DistHist[dist]++
	}
	if dist >= MinPrefetchDist {
		st.PrefetchHit++
	} else {
		st.PrefetchMiss++
	}
{{- end}}

{{/* ================================================================ */}}
{{/* fusedBaseline: the block-fused baseline engine.                   */}}
{{/* ================================================================ */}}
{{define "fusedBaseline"}}
// runFusedBaseline executes the baseline machine over the block-fused form.
func runFusedBaseline(m *Machine, ctx context.Context) (int32, error) {
	fp := m.fp
	if m.halted {
		return m.status, nil
	}
	bi := int32(-1)
	if m.pc >= 0 && m.pc < len(fp.pc2block) {
		bi = fp.pc2block[m.pc]
	}
	if bi < 0 || m.pending != noPending {
		// Not at a block boundary (a resumed or hand-positioned machine):
		// the whole run belongs to the per-instruction loop.
		m.Fusion.Bails++
		return m.runFastBaseline(ctx)
	}
	ops := fp.ops
	blocks := fp.blocks
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	n := len(fp.dec)

	for {
		b := &blocks[bi]
		if insts+int64(b.cost) > limit || b.term == ftBail {
			// The step budget could expire inside this block, or the
			// block is irregular: fall back to per-instruction
			// accounting for the rest of the run.
			m.pc = int(b.start)
			st.Instructions = insts
			m.Fusion.Bails++
			return m.runFastBaseline(ctx)
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc = int(b.start)
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
		m.Fusion.Blocks++

		body := ops[b.off : b.off+b.n]
		for i := range body {
			u := &body[i]
			insts++
			switch u.kind {
			{{template "dataCases" cases "" "int(u.pc)" false true}}
			}
		}

		if b.term <= ftExit {
			if b.term == ftExit {
				{{template "exit" .}}
			}
			{{template "fallThrough" cases "" "" false false}}
			continue
		}

		// A delayed transfer. Arm it: its counts, the target index the
		// delay slot sees as m.pending, and the successor (a block index
		// or a succ* sentinel; jr and jalr resolve theirs here, before the
		// slot, which is exact because pc2block and the text are static).
		insts++
		pend := int(b.tgt)
		next := b.taken
		untaken := false
		switch b.term {
		case ftJump:
			st.UncondJumps++
		case ftCall:
			st.Calls++
			R[isa.RABase] = b.tob.imm
		case ftJalr:
			st.Calls++
			target := R[b.tob.rs1]
			R[isa.RABase] = b.tob.imm
			pend = addrToIndex(target)
			next = succ(fp.pc2block, pend)
		case ftJr:
			pend = addrToIndex(R[b.tob.rs1])
			if pend != -1 {
				if b.tob.kind == uJrRet {
					st.Returns++
				} else {
					st.UncondJumps++
				}
			}
			next = succ(fp.pc2block, pend)
		default: // ftBCond, ftCmpBCond
			if b.term == ftCmpBCond {
				insts++
				u := &b.cob
				switch u.kind {
				case uCmpImm:
					m.CC = signOf(R[u.rs1], u.imm)
				case uCmpReg:
					m.CC = signOf(R[u.rs1], R[u.rs2])
				default: // uFcmp
					a, c := F[u.rs1], F[u.rs2]
					switch {
					case a < c:
						m.CC = -1
					case a > c:
						m.CC = 1
					default:
						m.CC = 0
					}
				}
				m.Fusion.Fused++
			}
			st.CondBranches++
			if isa.Cond(b.tob.cond).HoldsInt(m.CC, 0) {
				st.CondTaken++
			} else {
				pend, next, untaken = noPending, b.fall, true
			}
		}

		// The delay slot, with the transfer armed. An unfilled slot (a
		// nop) is the common case and skips the dispatch.
		insts++
		if u := &b.dob; u.kind == uNop {
			st.Noops++
		} else {
			dpc := int(b.dpc)
			switch u.kind {
			{{template "dataCases" cases "pend" "dpc" false false}}
			}
		}
		{{template "successor" cases "" "int(b.dpc)" false false}}
	}
}
{{end}}

{{/* ================================================================ */}}
{{/* fusedBRM: the block-fused branch-register engine.                 */}}
{{/* ================================================================ */}}
{{define "fusedBRM"}}
// runFusedBRM executes the branch-register machine over the block-fused form.
func runFusedBRM(m *Machine, ctx context.Context) (int32, error) {
	fp := m.fp
	if m.halted {
		return m.status, nil
	}
	bi := int32(-1)
	if m.pc >= 0 && m.pc < len(fp.pc2block) {
		bi = fp.pc2block[m.pc]
	}
	if bi < 0 {
		m.Fusion.Bails++
		return m.runFastBRM(ctx)
	}
	ops := fp.ops
	blocks := fp.blocks
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	n := len(fp.dec)

	for {
		b := &blocks[bi]
		if insts+int64(b.cost) > limit || b.term == ftBail {
			m.pc = int(b.start)
			st.Instructions = insts
			m.Fusion.Bails++
			return m.runFastBRM(ctx)
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc = int(b.start)
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
		m.Fusion.Blocks++

		body := ops[b.off : b.off+b.n]
		for i := range body {
			u := &body[i]
			insts++
			now := insts
			_ = now
			switch u.kind {
			{{template "dataCases" cases "" "int(u.pc)" true true}}
			}
		}

		if b.term <= ftExit {
			if b.term == ftExit {
				{{template "exit" .}}
			}
			{{template "fallThrough" cases "" "" true false}}
			continue
		}

		// A fused companion retires first: a compare that assigns b[7]
		// for the transfer through it (cmpbr/fcmpbr), or a static brcalc
		// of the transfer's own breg.
		cmpTaken := false
		if b.term >= ftBrmCmpBr {
			insts++
			u := &b.cob
			if b.term == ftBrmCmpBr {
				switch u.kind {
				case uCmpBrImm:
					cmpTaken = isa.Cond(u.cond).HoldsInt(R[u.rs1], u.imm)
				case uCmpBrReg:
					cmpTaken = isa.Cond(u.cond).HoldsInt(R[u.rs1], R[u.rs2])
				default: // uFCmpBr
					cmpTaken = isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2])
				}
				if !b.lite {
					// The transfer op could observe (or a trap in it could
					// expose) the intermediate b[7]; for lite blocks the
					// compare result is dead until the transfer and the
					// store is elided.
					if cmpTaken {
						src := m.B[u.bsrc]
						m.B[isa.RABr] = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
					} else {
						m.B[isa.RABr] = breg{addr: seq, calcTime: insts, viaCmp: true, valid: true}
					}
				}
			} else {
				st.BrCalcs++
				m.B[u.rd] = breg{addr: u.imm, calcTime: insts, valid: true}
			}
			m.Fusion.Fused++
		}

		// The transfer-annotated op. A nop (no instruction could be moved
		// into the transfer) is the common case and skips the dispatch.
		insts++
		now := insts
		if u := &b.tob; u.kind == uNop {
			st.Noops++
		} else {
			tpc := int(b.termPC)
			_ = tpc
			switch u.kind {
			{{template "dataCases" cases "" "tpc" true false}}
			}
		}

		// Apply the transfer: its counts and the successor. The return
		// side effect lands in b[7] after the breg is read.
		pend := int(b.tgt)
		next := b.taken
		untaken := false
		switch b.term {
		case ftBrm:
			bv := m.B[b.tob.br]
			if !bv.valid {
				return 0, m.fastTrap(int(b.termPC), insts, TrapUninitBranchReg,
					"transfer through uninitialized b[%d]", b.tob.br)
			}
			if bv.addr == seq {
				// Untaken conditional (or a movbr that copied the
				// sentinel): fall through.
				if bv.viaCmp {
					st.CondBranches++
				}
				next, untaken = b.fall, true
				break
			}
			pend = addrToIndex(bv.addr)
			switch {
			case bv.viaCmp:
				st.CondBranches++
			case pend == -1:
				// exit to the halt address: not a workload transfer
			case m.isFuncEntry(pend):
				st.Calls++
			case bv.isRA:
				st.Returns++
			default:
				st.UncondJumps++
			}
			st.CondTaken += b2i(bv.viaCmp)
			if pend != -1 {
				dist := now - bv.calcTime
				{{template "prefetch"}}
			}
			next = succ(fp.pc2block, pend)
		case ftBrmSJmp:
			// Transfer through a breg the block itself loaded with a
			// static target: stat class and prefetch distance were
			// resolved at decode time.
			if next != succHalt {
				if b.statK == 1 {
					st.Calls++
				} else {
					st.UncondJumps++
				}
				dist := int64(b.distK)
				{{template "prefetch"}}
			}
		case ftBrmSCond:
			// Transfer through a compare whose source breg the block
			// loaded statically: the breg read degenerates to a
			// taken/untaken test.
			st.CondBranches++
			if m.B[b.tob.br].addr == seq {
				next, untaken = b.fall, true
				break
			}
			st.CondTaken++
			if next != succHalt {
				dist := int64(b.distK)
				{{template "prefetch"}}
			}
		case ftBrmCmpBr:
			// The transfer reads b[7] as the fused compare left it. A
			// taken compare copied b[bsrc], which reads the same after
			// the op: blockdecode never fuses a companion with an op that
			// writes a branch register (writesBReg).
			st.CondBranches++
			if !cmpTaken {
				next, untaken = b.fall, true
				break
			}
			src := m.B[b.cob.bsrc]
			if src.addr == seq {
				next, untaken = b.fall, true
				break
			}
			st.CondTaken++
			pend = addrToIndex(src.addr)
			if pend != -1 {
				dist := now - src.calcTime
				{{template "prefetch"}}
			}
			next = succ(fp.pc2block, pend)
		default: // ftBrmCalcBr
			switch b.statK {
			case 1:
				st.Calls++
			case 2:
				st.UncondJumps++
			}
			if b.statK != 0 {
				// The target was calculated by the immediately preceding
				// instruction: the prefetch distance is always 1.
				st.DistHist[1]++
				st.PrefetchMiss++
			}
		}
		m.B[isa.RABr] = breg{addr: b.retAddr, calcTime: now, isRA: true, valid: true}
		{{template "successor" cases "" "int(b.termPC)" true false}}
	}
}
{{end}}
`
