// Command gen generates the emulator's dispatch loops from a single
// template: the profiled fast loops (fastloop_prof.go) and the block-fused
// engine (fusedloop.go), plus the fused superinstruction table
// (fusedtab.go). The hand-written fastloop.go is the semantic reference;
// everything that must stay byte-identical to it — micro-op case bodies,
// trap messages and ordering, Stats arithmetic — lives in the shared
// template defines below, so a fix lands in every engine variant at once
// instead of being hand-copied across the loops.
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
// is live (Brm), whether the uTrapExit case belongs in the switch
// (Exit/Adv), and whether fused superinstruction pairs can appear (Body).
type caseCtx struct {
	Pend string // expression assigned to m.pending before a trap ("" = none)
	PC   string // trap program-counter expression
	Brm  bool   // BRM micro-ops are live (and `now` is in scope)
	Exit bool   // include the uTrapExit case (fast loops only)
	Adv  string // advance flag cleared by uTrapExit ("seqAdv"/"advance")
	Body bool   // fused block body: include superinstruction pair cases
}

var funcs = template.FuncMap{
	"cases": func(pend, pc string, brm, exit, body bool, adv string) caseCtx {
		return caseCtx{Pend: pend, PC: pc, Brm: brm, Exit: exit, Adv: adv, Body: body}
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
		return fmt.Sprintf("m.CC = signOf(R[%s], %s)\nm.ccF = false", s.rs1, s.imm)
	}},
	"cmp": {label: "Cmp", kind: "uCmpReg", base: true, code: func(s slotRefs) string {
		return fmt.Sprintf("m.CC = signOf(R[%s], R[%s])\nm.ccF = false", s.rs1, s.rs2)
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
	"subi": {label: "Subi", kind: "uSubImm", code: func(s slotRefs) string {
		return fmt.Sprintf("if %s != 0 {\nR[%s] = R[%s] - %s\n}", s.rd, s.rd, s.rs1, s.imm)
	}},
	"lw": {label: "Lw", kind: "uLwReg", code: func(s slotRefs) string {
		return fmt.Sprintf(`st.Loads++
{
a := R[%s] + R[%s]
if a < 0 || int(a)+4 > len(mem) {
return 0, m.fastTrap(%s, insts, TrapOOBLoad, "load out of range: %%#x", uint32(a))
}
if a%%isa.WordSize != 0 {
return 0, m.fastTrap(%s, insts, TrapMisaligned, "misaligned word load: %%#x", uint32(a))
}
if %s != 0 {
R[%s] = int32(binary.LittleEndian.Uint32(mem[a:]))
}
}`, s.rs1, s.rs2, s.pc, s.pc, s.rd, s.rd)
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

// pairSelExt and tripleSelExt are the *extended candidate* vocabulary for
// the adaptive tier (DESIGN §13): adjacencies that fall below the static
// selection's global ~1% cutoff but dominate individual workloads — e.g.
// tinycc retires >2% of its instructions in addi+cmpi, slli+const and
// const+addi+lwi, none of which earn a global slot. The static tables
// above never consult these (the fused tier's decode is frozen as the
// comparison baseline); only the adaptive builder does, and only for
// patterns the program's own profile proves hot. Appending after the
// static selection keeps the static kind constants stable.
var pairSelExt = [][]string{
	{"addi", "cmpi"}, {"addi", "cmpbri"}, {"slli", "const"}, {"ori", "addi"},
	{"addi", "addi"}, {"add", "const"}, {"lwi", "swi"}, {"lwi", "slli"},
	{"ori", "const"}, {"addi", "subi"}, {"subi", "slli"}, {"swi", "addi"},
	{"ori", "ori"}, {"addi", "lw"}, {"fadd", "fmul"}, {"lfi", "fmul"},
	{"addi", "lfi"}, {"add", "add"}, {"slli", "addi"}, {"lbi", "addi"},
	{"lbi", "sbi"}, {"sbi", "lbi"}, {"addi", "lbi"}, {"lbi", "add"},
	{"const", "cmpi"}, {"const", "cmp"}, {"add", "cmpi"}, {"add", "cmpbri"},
	{"const", "sbi"}, {"swi", "const"},
}

var tripleSelExt = [][]string{
	{"const", "addi", "lwi"}, {"addi", "lwi", "cmp"}, {"addi", "lwi", "cmpbr"},
	{"add", "lwi", "addi"}, {"lwi", "addi", "cmpi"}, {"lwi", "addi", "cmpbri"},
	{"slli", "const", "addi"}, {"swi", "addi", "ori"}, {"const", "addi", "addi"},
	{"add", "const", "addi"}, {"addi", "addi", "slli"}, {"addi", "ori", "addi"},
	{"add", "lwi", "swi"}, {"lwi", "swi", "addi"}, {"slli", "add", "const"},
	{"lwi", "slli", "add"}, {"ori", "const", "addi"}, {"addi", "subi", "slli"},
	{"const", "addi", "subi"}, {"subi", "slli", "add"}, {"lfi", "const", "addi"},
	{"add", "lfi", "const"}, {"fadd", "fmul", "fadd"}, {"fmul", "fadd", "fmul"},
}

// fusedSelections returns every selection — static pairs, static triples,
// then the extended candidates — in kind order.
func fusedSelections() [][]string {
	sel := append(append([][]string{}, pairSel...), tripleSel...)
	return append(append(sel, pairSelExt...), tripleSelExt...)
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

// fusePairExt reports the fused kind for a pair in the extended candidate
// vocabulary (adaptive tier only; the static fused tier never consults it).
func fusePairExt(a, b uopKind) (uopKind, bool) {
switch {
`)
	for _, ops := range pairSelExt {
		fmt.Fprintf(&sb, "case a == %s && b == %s:\nreturn %s, true\n",
			vocab[ops[0]].kind, vocab[ops[1]].kind, fusedKindName(ops))
	}
	sb.WriteString(`}
return 0, false
}

// fuseTripleExt reports the fused kind for a triple in the extended
// candidate vocabulary (adaptive tier only).
func fuseTripleExt(a, b, c uopKind) (uopKind, bool) {
switch {
`)
	for _, ops := range tripleSelExt {
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
		"fastloop_prof.go": fastProfHeader +
			render(t, "fastBaseline") + "\n" + render(t, "fastBRM"),
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

const fastProfHeader = genMark + `
package emu

// The profiled twins of the fast loops (fastloop.go). Each is the same
// predecoded dispatch loop with BlockProfile updates at transfers of
// control — unconditional writes, no callbacks — generated from the same
// template as the fused engine so the micro-op semantics cannot drift
// between engine variants.
//
// The twins are deliberately separate functions rather than a generic
// parameterization: an earlier generic version put a dictionary-indirect
// call at every hook site of the shared gcshape body, costing ~20% BRM
// throughput even for the no-op instantiation, and a runtime 'prof !=
// nil' test per transfer cost ~4% baseline / ~12% BRM. Keeping the
// unprofiled loops byte-identical to their pre-profiler form is a gated
// requirement (make bench-gate).
//
// Drift between a loop and its twin is caught by TestProfileEnginesAgree
// and TestProfiledRunsMatchUnprofiled (internal/driver), which hold
// profiled and unprofiled runs to identical outputs and Stats across the
// full suite, and by the Stats-identity assertions on the profile itself.

import (
	"context"
	"encoding/binary"

	"branchreg/internal/isa"
)

`

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
{{if .Exit}}
case uTrapExit:
	m.halted = true
	m.status = R[1]
	{{.Adv}} = false
{{end}}
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
	m.ccF = false
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
	m.ccF = true
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
{{/* baselineDelay: execute the delay-slot micro-op of a baseline      */}}
{{/* transfer. pend (the armed target index or -2) is live so a trap   */}}
{{/* in the slot reports exactly the fast loop's machine state.        */}}
{{/* ---------------------------------------------------------------- */}}
{{define "baselineDelay"}}
	insts++
	{
		u := &b.dob
		dpc := int(b.dpc)
		switch u.kind {
		{{template "dataCases" cases "pend" "dpc" false false false ""}}
		}
	}
{{end}}

{{/* ---------------------------------------------------------------- */}}
{{/* applyStatic: apply a pre-resolved baseline transfer (jump, cond   */}}
{{/* taken, call). pend holds the armed Text index for diagnostics.    */}}
{{/* ---------------------------------------------------------------- */}}
{{define "applyStatic"}}
	switch {
	case b.taken == succHalt:
		m.halted = true
		m.status = R[1]
		m.pc = int(b.dpc)
		st.Instructions = insts
		return m.status, nil
	case b.taken == succTrap:
		return 0, m.fastTrap(int(b.dpc), insts, TrapPCOutOfRange, "jump out of text: index %d", pend)
	case b.taken == succInner:
		m.pc = pend
		st.Instructions = insts
		m.Fusion.Bails++
		return m.runFastBaseline(ctx)
	default:
		bi = b.taken
	}
{{end}}

{{/* ---------------------------------------------------------------- */}}
{{/* applyDynamic: apply a computed baseline transfer (jalr, jr).      */}}
{{/* ---------------------------------------------------------------- */}}
{{define "applyDynamic"}}
	switch {
	case pend == -1:
		m.halted = true
		m.status = R[1]
		m.pc = int(b.dpc)
		st.Instructions = insts
		return m.status, nil
	case pend < 0 || pend >= n:
		return 0, m.fastTrap(int(b.dpc), insts, TrapPCOutOfRange, "jump out of text: index %d", pend)
	default:
		bi = fp.pc2block[pend]
		if bi < 0 {
			m.pc = pend
			st.Instructions = insts
			m.Fusion.Bails++
			return m.runFastBaseline(ctx)
		}
	}
{{end}}

{{/* ---------------------------------------------------------------- */}}
{{/* fallThrough: advance to the fall-through successor block.         */}}
{{/* ---------------------------------------------------------------- */}}
{{define "fallThrough"}}
	bi = b.fall
	if bi < 0 {
		if bi == succTrap {
			return 0, m.fastTrap(int(b.fallIdx), insts, TrapPCOutOfRange,
				"pc index %d outside text [0,%d)", int(b.fallIdx), n)
		}
		m.pc = int(b.fallIdx)
		st.Instructions = insts
		m.Fusion.Bails++
		return {{if .Brm}}m.runFastBRM(ctx){{else}}m.runFastBaseline(ctx){{end}}
	}
{{end}}

{{/* ---------------------------------------------------------------- */}}
{{/* brmApplyTaken: the taken tail of a BRM transfer through breg bv.  */}}
{{/* Expects: bv (breg), now, b, idx (= addrToIndex(bv.addr)); Stats   */}}
{{/* classification already done.                                      */}}
{{/* ---------------------------------------------------------------- */}}
{{define "brmApplyTaken"}}
	st.CondTaken += b2i(bv.viaCmp)
	if idx != -1 {
		dist := now - bv.calcTime
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
		
	}
	m.B[isa.RABr] = ret
	switch {
	case idx == -1:
		m.halted = true
		m.status = R[1]
		m.pc = int(b.termPC)
		st.Instructions = insts
		return m.status, nil
	case idx < 0 || idx >= n:
		return 0, m.fastTrap(int(b.termPC), insts, TrapPCOutOfRange, "jump out of text: index %d", idx)
	default:
		bi = fp.pc2block[idx]
		if bi < 0 {
			m.pc = idx
			st.Instructions = insts
			m.Fusion.Bails++
			return m.runFastBRM(ctx)
		}
	}
{{end}}

{{/* ================================================================ */}}
{{/* fastBaseline: the per-instruction baseline loop (profiled twin).  */}}
{{/* ================================================================ */}}
{{define "fastBaseline"}}
// runFastBaselineProf is the profiled twin of Machine.runFastBaseline.
func runFastBaselineProf(m *Machine, ctx context.Context, prof *BlockProfile) (int32, error) {
	ops := m.dec
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	pc := m.pc
	pending := m.pending

	for !m.halted {
		if pc < 0 || pc >= len(ops) {
			m.pending = pending
			st.Instructions = insts
			return 0, m.fastTrap(pc, insts, TrapPCOutOfRange,
				"pc index %d outside text [0,%d)", pc, len(ops))
		}
		u := &ops[pc]
		insts++

		seqAdv := true
		switch u.kind {
		{{template "dataCases" cases "pending" "pc" false true false "seqAdv"}}
		case uJump:
			st.UncondJumps++
			prof.taken(pc)
			pending = int(u.tgt)
			pc++
			seqAdv = false
		case uBCond:
			st.CondBranches++
			if isa.Cond(u.cond).HoldsInt(m.CC, 0) {
				st.CondTaken++
				prof.taken(pc)
				pending = int(u.tgt)
			} else {
				prof.notTaken(pc)
			}
			pc++
			seqAdv = false
		case uCall:
			st.Calls++
			prof.taken(pc)
			R[isa.RABase] = u.imm
			pending = int(u.tgt)
			pc++
			seqAdv = false
		case uJalr:
			st.Calls++
			prof.taken(pc)
			target := R[u.rs1]
			R[isa.RABase] = u.imm
			pending = addrToIndex(target)
			pc++
			seqAdv = false
		case uJrRet, uJrJmp:
			pending = addrToIndex(R[u.rs1])
			if pending != -1 {
				if u.kind == uJrRet {
					st.Returns++
				} else {
					st.UncondJumps++
				}
				prof.taken(pc)
			}
			pc++
			seqAdv = false
		}

		if seqAdv && !m.halted {
			if pending != -2 {
				t := pending
				pending = -2
				switch {
				case t == -1:
					m.halted = true
					m.status = R[1]
				case t < 0 || t >= len(ops):
					m.pending = pending
					return 0, m.fastTrap(pc, insts, TrapPCOutOfRange, "jump out of text: index %d", t)
				default:
					prof.edge(pc, t)
					pc = t
				}
			} else {
				pc++
			}
		}

		if insts > limit {
			m.pending = pending
			t := m.fastTrap(pc, insts, TrapStepBudget, "instruction limit exceeded")
			t.Limit = limit
			t.Executed = insts
			return 0, t
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc, m.pending = pc, pending
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
	}
	m.pc, m.pending = pc, pending
	st.Instructions = insts
	return m.status, nil
}
{{end}}

{{/* ================================================================ */}}
{{/* fastBRM: the per-instruction BRM loop (profiled twin).            */}}
{{/* ================================================================ */}}
{{define "fastBRM"}}
// runFastBRMProf is the profiled twin of Machine.runFastBRM.
func runFastBRMProf(m *Machine, ctx context.Context, prof *BlockProfile) (int32, error) {
	ops := m.dec
	st := &m.Stats
	mem := m.Mem
	R := &m.R
	F := &m.F
	limit := m.MaxInstructions
	insts := st.Instructions
	nextPoll := insts + ctxCheckStride
	pc := m.pc

	for !m.halted {
		if pc < 0 || pc >= len(ops) {
			return 0, m.fastTrap(pc, insts, TrapPCOutOfRange,
				"pc index %d outside text [0,%d)", pc, len(ops))
		}
		u := &ops[pc]
		insts++
		now := insts

		advance := true
		switch u.kind {
		{{template "dataCases" cases "" "pc" true true false "advance"}}
		}

		if advance && !m.halted {
			if u.br == isa.PCBr {
				pc++
			} else {
				b := m.B[u.br]
				if !b.valid {
					return 0, m.fastTrap(pc, insts, TrapUninitBranchReg,
						"transfer through uninitialized b[%d]", u.br)
				}
				switch {
				case b.viaCmp:
					st.CondBranches++
				case b.addr == seq:
					// only compares produce the sequential sentinel
				default:
					idx := addrToIndex(b.addr)
					switch {
					case idx == -1:
						// exit to the halt address: not a workload transfer
					case m.isFuncEntry(idx):
						st.Calls++
					case b.isRA:
						st.Returns++
					default:
						st.UncondJumps++
					}
				}
				ret := breg{addr: isa.IndexToAddr(pc) + isa.WordSize, calcTime: now, isRA: true, valid: true}
				if b.addr == seq {
					// Untaken conditional: fall through.
					prof.notTaken(pc)
					m.B[isa.RABr] = ret
					pc++
				} else {
					st.CondTaken += b2i(b.viaCmp)
					idx := addrToIndex(b.addr)
					if idx != -1 {
						dist := now - b.calcTime
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
						prof.taken(pc)
						prof.prefetch(pc, dist)
					}
					m.B[isa.RABr] = ret
					switch {
					case idx == -1:
						m.halted = true
						m.status = R[1]
					case idx < 0 || idx >= len(ops):
						return 0, m.fastTrap(pc, insts, TrapPCOutOfRange, "jump out of text: index %d", idx)
					default:
						prof.edge(pc, idx)
						pc = idx
					}
				}
			}
		}

		if insts > limit {
			t := m.fastTrap(pc, insts, TrapStepBudget, "instruction limit exceeded")
			t.Limit = limit
			t.Executed = insts
			return 0, t
		}
		if insts >= nextPoll {
			if err := ctx.Err(); err != nil {
				m.pc = pc
				st.Instructions = insts
				return 0, err
			}
			nextPoll = insts + ctxCheckStride
		}
	}
	m.pc = pc
	st.Instructions = insts
	return m.status, nil
}
{{end}}

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
	if bi < 0 || m.pending != -2 {
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
			{{template "dataCases" cases "" "int(u.pc)" false false true ""}}
			}
		}

		switch b.term {
		case ftFall:
			{{template "fallThrough" cases "" "" false false false ""}}
		case ftExit:
			insts++
			m.halted = true
			m.status = R[1]
			m.pc = int(b.termPC)
			st.Instructions = insts
			return m.status, nil
		case ftJump:
			insts++
			st.UncondJumps++
			pend := int(b.tgt)
			{{template "baselineDelay" .}}
			{{template "applyStatic" .}}
		case ftBCond, ftCmpBCond:
			if b.term == ftCmpBCond {
				insts++
				u := &b.cob
				switch u.kind {
				case uCmpImm:
					m.CC = signOf(R[u.rs1], u.imm)
					m.ccF = false
				case uCmpReg:
					m.CC = signOf(R[u.rs1], R[u.rs2])
					m.ccF = false
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
					m.ccF = true
				}
				m.Fusion.Fused++
			}
			insts++
			st.CondBranches++
			pend := -2
			if isa.Cond(b.tob.cond).HoldsInt(m.CC, 0) {
				st.CondTaken++
				pend = int(b.tgt)
			}
			{{template "baselineDelay" .}}
			if pend == -2 {
				{{template "fallThrough" cases "" "" false false false ""}}
			} else {
				{{template "applyStatic" .}}
			}
		case ftCall:
			insts++
			st.Calls++
			R[isa.RABase] = b.tob.imm
			pend := int(b.tgt)
			{{template "baselineDelay" .}}
			{{template "applyStatic" .}}
		case ftJalr:
			insts++
			st.Calls++
			target := R[b.tob.rs1]
			R[isa.RABase] = b.tob.imm
			pend := addrToIndex(target)
			{{template "baselineDelay" .}}
			{{template "applyDynamic" .}}
		default: // ftJr
			insts++
			pend := addrToIndex(R[b.tob.rs1])
			if pend != -1 {
				if b.tob.kind == uJrRet {
					st.Returns++
				} else {
					st.UncondJumps++
				}
				}
			{{template "baselineDelay" .}}
			{{template "applyDynamic" .}}
		}
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
			{{template "dataCases" cases "" "int(u.pc)" true false true ""}}
			}
		}

		switch b.term {
		case ftFall:
			{{template "fallThrough" cases "" "" true false false ""}}
		case ftExit:
			insts++
			m.halted = true
			m.status = R[1]
			m.pc = int(b.termPC)
			st.Instructions = insts
			return m.status, nil
		case ftBrm:
			insts++
			now := insts
			{
				u := &b.tob
				tpc := int(b.termPC)
				_ = tpc
				switch u.kind {
				{{template "dataCases" cases "" "tpc" true false false ""}}
				}
			}
			bv := m.B[b.tob.br]
			if !bv.valid {
				return 0, m.fastTrap(int(b.termPC), insts, TrapUninitBranchReg,
					"transfer through uninitialized b[%d]", b.tob.br)
			}
			ret := breg{addr: b.retAddr, calcTime: now, isRA: true, valid: true}
			if bv.addr == seq {
				// Untaken conditional (or a movbr that copied the
				// sentinel): fall through.
				if bv.viaCmp {
					st.CondBranches++
				}
				m.B[isa.RABr] = ret
				{{template "fallThrough" cases "" "" true false false ""}}
			} else {
				idx := addrToIndex(bv.addr)
				switch {
				case bv.viaCmp:
					st.CondBranches++
				case idx == -1:
					// exit to the halt address: not a workload transfer
				case m.isFuncEntry(idx):
					st.Calls++
				case bv.isRA:
					st.Returns++
				default:
					st.UncondJumps++
				}
				{{template "brmApplyTaken" .}}
			}
		case ftBrmSJmp:
			// Transfer through a breg the block itself loaded with a
			// static target: no breg read, classification or PC→index
			// lookup at runtime — target block, stat class and prefetch
			// distance were all resolved at decode time.
			insts++
			now := insts
			{
				u := &b.tob
				tpc := int(b.termPC)
				_ = tpc
				switch u.kind {
				{{template "dataCases" cases "" "tpc" true false false ""}}
				}
			}
			m.B[isa.RABr] = breg{addr: b.retAddr, calcTime: now, isRA: true, valid: true}
			if b.taken == succHalt {
				m.halted = true
				m.status = R[1]
				m.pc = int(b.termPC)
				st.Instructions = insts
				return m.status, nil
			}
			if b.statK == 1 {
				st.Calls++
			} else {
				st.UncondJumps++
			}
			if b.distK > DistHistMax {
				st.DistHist[DistHistMax]++
			} else {
				st.DistHist[b.distK]++
			}
			if b.distK >= MinPrefetchDist {
				st.PrefetchHit++
			} else {
				st.PrefetchMiss++
			}
			bi = b.taken
			if bi < 0 {
				if bi == succTrap {
					return 0, m.fastTrap(int(b.termPC), insts, TrapPCOutOfRange, "jump out of text: index %d", int(b.tgt))
				}
				m.pc = int(b.tgt)
				st.Instructions = insts
				m.Fusion.Bails++
				return m.runFastBRM(ctx)
			}
			case ftBrmSCond:
			// Transfer through a compare whose source breg the block
			// loaded statically: the breg read degenerates to a
			// taken/untaken test and both arms are fully resolved.
			insts++
			now := insts
			{
				u := &b.tob
				tpc := int(b.termPC)
				_ = tpc
				switch u.kind {
				{{template "dataCases" cases "" "tpc" true false false ""}}
				}
			}
			st.CondBranches++
			ret := breg{addr: b.retAddr, calcTime: now, isRA: true, valid: true}
			if m.B[b.tob.br].addr == seq {
				m.B[isa.RABr] = ret
				{{template "fallThrough" cases "" "" true false false ""}}
			} else {
				st.CondTaken++
				m.B[isa.RABr] = ret
				if b.taken == succHalt {
					m.halted = true
					m.status = R[1]
					m.pc = int(b.termPC)
					st.Instructions = insts
					return m.status, nil
				}
				if b.distK > DistHistMax {
					st.DistHist[DistHistMax]++
				} else {
					st.DistHist[b.distK]++
				}
				if b.distK >= MinPrefetchDist {
					st.PrefetchHit++
				} else {
					st.PrefetchMiss++
				}
				bi = b.taken
				if bi < 0 {
					if bi == succTrap {
						return 0, m.fastTrap(int(b.termPC), insts, TrapPCOutOfRange, "jump out of text: index %d", int(b.tgt))
					}
					m.pc = int(b.tgt)
					st.Instructions = insts
					m.Fusion.Bails++
					return m.runFastBRM(ctx)
				}
				}
		case ftBrmCmpBr:
			insts++
			now := insts
			var bv breg
			{
				u := &b.cob
				taken := false
				switch u.kind {
				case uCmpBrImm:
					taken = isa.Cond(u.cond).HoldsInt(R[u.rs1], u.imm)
				case uCmpBrReg:
					taken = isa.Cond(u.cond).HoldsInt(R[u.rs1], R[u.rs2])
				default: // uFCmpBr
					taken = isa.Cond(u.cond).HoldsFloat(F[u.rs1], F[u.rs2])
				}
				if taken {
					src := m.B[u.bsrc]
					bv = breg{addr: src.addr, calcTime: src.calcTime, viaCmp: true, valid: true}
				} else {
					bv = breg{addr: seq, calcTime: now, viaCmp: true, valid: true}
				}
				if !b.lite {
					// The companion op could observe (or a trap in it could
					// expose) the intermediate b[7] value; for lite blocks
					// the compare result is dead until the transfer and the
					// store is elided.
					m.B[isa.RABr] = bv
				}
			}
			m.Fusion.Fused++
			insts++
			now = insts
			{
				u := &b.tob
				tpc := int(b.termPC)
				_ = tpc
				switch u.kind {
				{{template "dataCases" cases "" "tpc" true false false ""}}
				}
			}
			// The transfer reads b[7] as the compare left it: the fused
			// companion never writes a branch register (blockdecode).
			st.CondBranches++
			ret := breg{addr: b.retAddr, calcTime: now, isRA: true, valid: true}
			if bv.addr == seq {
				m.B[isa.RABr] = ret
				{{template "fallThrough" cases "" "" true false false ""}}
			} else {
				idx := addrToIndex(bv.addr)
				{{template "brmApplyTaken" .}}
			}
		default: // ftBrmCalcBr
			insts++
			now := insts
			st.BrCalcs++
			m.B[b.cob.rd] = breg{addr: b.cob.imm, calcTime: now, valid: true}
			m.Fusion.Fused++
			insts++
			now = insts
			{
				u := &b.tob
				tpc := int(b.termPC)
				_ = tpc
				switch u.kind {
				{{template "dataCases" cases "" "tpc" true false false ""}}
				}
			}
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
			m.B[isa.RABr] = breg{addr: b.retAddr, calcTime: now, isRA: true, valid: true}
			switch {
			case b.taken == succHalt:
				m.halted = true
				m.status = R[1]
				m.pc = int(b.termPC)
				st.Instructions = insts
				return m.status, nil
			case b.taken == succTrap:
				return 0, m.fastTrap(int(b.termPC), insts, TrapPCOutOfRange, "jump out of text: index %d", int(b.tgt))
			case b.taken == succInner:
				m.pc = int(b.tgt)
				st.Instructions = insts
				m.Fusion.Bails++
				return m.runFastBRM(ctx)
			default:
				bi = b.taken
			}
		}
	}
}
{{end}}
`
