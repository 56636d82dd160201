package emu

import (
	"sort"

	"branchreg/internal/isa"
)

// This file measures fusion opportunity rather than exploiting it: it
// builds the unfused block form of a program and weights every adjacent
// micro-op pair by its dynamic execution count (reconstructed from a
// BlockProfile by flow conservation). cmd/fusepairs aggregates these
// reports over the workload suite; the fusion selection in gen/main.go
// (pairSel/tripleSel, expanded into fusedtab.go) and its derivation are
// documented in DESIGN §10.

// PairStat is one adjacent micro-op pair and its dynamic frequency.
type PairStat struct {
	First  string
	Second string
	Count  int64
}

// FuseReport summarizes one profiled run's fusion opportunities.
type FuseReport struct {
	// Pairs counts adjacent pairs inside block bodies (both ops
	// straight-line, no transfer between them), keyed by kind names.
	Pairs map[[2]string]int64
	// TermPairs counts (last body op, terminator op) adjacencies — the
	// candidates for terminator fusion like cmp+bcond or cmpbr+transfer.
	TermPairs map[[2]string]int64
	// Triples counts adjacent straight-line op triples, the candidates
	// for three-wide superinstructions.
	Triples map[[3]string]int64
	// Terms counts dynamic block executions by terminator class.
	Terms map[string]int64
	// Blocks and Insts are dynamic block entries and instructions
	// retired inside blocks; Insts/Blocks is the average block length.
	Blocks int64
	Insts  int64
}

// PairStats profiles the fusion opportunities of one program from a
// completed profiled run.
func PairStats(p *isa.Program, prof *BlockProfile) *FuseReport {
	dec := predecode(p)
	fp := buildFprog(p, dec, false)
	counts := prof.Counts()
	r := &FuseReport{
		Pairs:     map[[2]string]int64{},
		TermPairs: map[[2]string]int64{},
		Triples:   map[[3]string]int64{},
		Terms:     map[string]int64{},
	}
	for bi := range fp.blocks {
		b := &fp.blocks[bi]
		if b.term == ftBail {
			continue
		}
		body := fp.ops[b.off : b.off+b.n]
		// Every op of a block executes as often as the block is entered:
		// blocks begin at leaders, so control cannot land mid-block.
		var entered int64
		if len(body) > 0 {
			entered = counts[body[0].pc]
		} else {
			entered = counts[b.termPC]
		}
		r.Blocks += entered
		r.Insts += entered * int64(b.cost)
		r.Terms[termName(b.term)] += entered
		for i := 0; i+1 < len(body); i++ {
			r.Pairs[[2]string{uopName(body[i].kind), uopName(body[i+1].kind)}] += entered
			if i+2 < len(body) {
				r.Triples[[3]string{
					uopName(body[i].kind), uopName(body[i+1].kind), uopName(body[i+2].kind),
				}] += entered
			}
		}
		if len(body) > 0 && b.term != ftFall && b.term != ftExit {
			r.TermPairs[[2]string{uopName(body[len(body)-1].kind), uopName(b.tob.kind)}] += entered
		}
	}
	return r
}

// Merge adds other's counts into r.
func (r *FuseReport) Merge(other *FuseReport) {
	for k, v := range other.Pairs {
		r.Pairs[k] += v
	}
	for k, v := range other.TermPairs {
		r.TermPairs[k] += v
	}
	for k, v := range other.Triples {
		r.Triples[k] += v
	}
	for k, v := range other.Terms {
		r.Terms[k] += v
	}
	r.Blocks += other.Blocks
	r.Insts += other.Insts
}

// TripleStat is one adjacent micro-op triple and its dynamic frequency.
type TripleStat struct {
	Ops   [3]string
	Count int64
}

// RankedTriples returns a triple map sorted by descending count.
func RankedTriples(m map[[3]string]int64) []TripleStat {
	out := make([]TripleStat, 0, len(m))
	for k, v := range m {
		out = append(out, TripleStat{Ops: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Ops[0]+out[i].Ops[1]+out[i].Ops[2] < out[j].Ops[0]+out[j].Ops[1]+out[j].Ops[2]
	})
	return out
}

// RankedPairs returns a pair map sorted by descending count.
func RankedPairs(m map[[2]string]int64) []PairStat {
	out := make([]PairStat, 0, len(m))
	for k, v := range m {
		out = append(out, PairStat{First: k[0], Second: k[1], Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].First != out[j].First {
			return out[i].First < out[j].First
		}
		return out[i].Second < out[j].Second
	})
	return out
}

func termName(t termKind) string {
	switch t {
	case ftBail:
		return "bail"
	case ftFall:
		return "fall"
	case ftExit:
		return "exit"
	case ftJump:
		return "jump"
	case ftBCond:
		return "bcond"
	case ftCmpBCond:
		return "cmp+bcond"
	case ftCall:
		return "call"
	case ftJalr:
		return "jalr"
	case ftJr:
		return "jr"
	case ftBrm:
		return "brm"
	case ftBrmCmpBr:
		return "cmpbr+br"
	case ftBrmCalcBr:
		return "brcalc+br"
	case ftBrmSJmp:
		return "brm.sjmp"
	case ftBrmSCond:
		return "brm.scond"
	}
	return "?"
}

func uopName(k uopKind) string {
	switch k {
	case uNop:
		return "nop"
	case uAddImm:
		return "addi"
	case uAddReg:
		return "add"
	case uSubImm:
		return "subi"
	case uSubReg:
		return "sub"
	case uMulImm:
		return "muli"
	case uMulReg:
		return "mul"
	case uDivImm:
		return "divi"
	case uDivReg:
		return "div"
	case uRemImm:
		return "remi"
	case uRemReg:
		return "rem"
	case uAndImm:
		return "andi"
	case uAndReg:
		return "and"
	case uOrImm:
		return "ori"
	case uOrReg:
		return "or"
	case uXorImm:
		return "xori"
	case uXorReg:
		return "xor"
	case uSllImm:
		return "slli"
	case uSllReg:
		return "sll"
	case uSrlImm:
		return "srli"
	case uSrlReg:
		return "srl"
	case uSraImm:
		return "srai"
	case uSraReg:
		return "sra"
	case uConst:
		return "const"
	case uSetImm:
		return "seti"
	case uSetReg:
		return "set"
	case uFSet:
		return "fset"
	case uLwImm:
		return "lwi"
	case uLwReg:
		return "lw"
	case uLbImm:
		return "lbi"
	case uLbReg:
		return "lb"
	case uSwImm:
		return "swi"
	case uSwReg:
		return "sw"
	case uSbImm:
		return "sbi"
	case uSbReg:
		return "sb"
	case uLfImm:
		return "lfi"
	case uLfReg:
		return "lf"
	case uSfImm:
		return "sfi"
	case uSfReg:
		return "sf"
	case uFadd:
		return "fadd"
	case uFsub:
		return "fsub"
	case uFmul:
		return "fmul"
	case uFdiv:
		return "fdiv"
	case uFneg:
		return "fneg"
	case uFmov:
		return "fmov"
	case uCvtif:
		return "cvtif"
	case uCvtfi:
		return "cvtfi"
	case uTrapExit:
		return "exit"
	case uTrapGetc:
		return "getc"
	case uTrapPutc:
		return "putc"
	case uTrapPutf:
		return "putf"
	case uTrapBad:
		return "badtrap"
	case uCmpImm:
		return "cmpi"
	case uCmpReg:
		return "cmp"
	case uFcmp:
		return "fcmp"
	case uJump:
		return "b"
	case uBCond:
		return "bcond"
	case uCall:
		return "call"
	case uJalr:
		return "jalr"
	case uJrRet:
		return "jr.ret"
	case uJrJmp:
		return "jr.jmp"
	case uBrCalcAbs:
		return "brcalc"
	case uBrCalcReg:
		return "brcalcr"
	case uBrLd:
		return "brld"
	case uCmpBrImm:
		return "cmpbri"
	case uCmpBrReg:
		return "cmpbr"
	case uFCmpBr:
		return "fcmpbr"
	case uMovBr:
		return "movbb"
	case uMovRB:
		return "movrb"
	case uMovBR:
		return "movbr"
	}
	return "illegal"
}
