// Code generated by branchreg/internal/emu/gen. DO NOT EDIT.

package emu

// The fused superinstruction table: kind constants and the decode-time
// pair/triple lookups used by buildFprog (blockdecode.go). The selection
// lives in gen/main.go (pairSel, tripleSel) and is data-driven: the
// hottest dynamic adjacencies over the 19-workload suite on both
// machines, measured by cmd/fusepairs (DESIGN §10 records the numbers).
// Fused kinds extend uopKind past the predecoded set (predecode.go) and
// appear only in fuop bodies, never in m.dec.

const (
	fConstAddi uopKind = 128 + iota
	fSlliAdd
	fAddiAdd
	fAddLwi
	fAddiSlli
	fAddAddi
	fAddSlli
	fAddiSbi
	fLwiCmpi
	fLwiCmp
	fLwiCmpbri
	fLwiCmpbr
	fAddLfi
	fSbiAdd
	fSbiAddi
	fFmulFadd
	fLfiConst
	fConstCmpbr
	fConstCmpbri
	fLbiCmpi
	fLbiCmpbri
	fAddLbi
	fBrcalcAddi
	fBrcalcConst
	fAddiOri
	fAddOri
	fConstLwi
	fLwiAddi
	fLwiAdd
	fLwiLwi
	fAddiSwi
	fAddSwi
	fSwiSwi
	fSwiLwi
	fAddiLwi
	fConstAddiAdd
	fSlliAddLwi
	fAddiSlliAdd
	fConstAddiSlli
	fAddSlliAdd
	fAddiAddAddi
	fAddAddiSbi
	fAddLwiCmpi
	fAddLwiCmpbri
	fSlliAddSlli
	fAddiAddLfi
	fAddiSbiAdd
	fAddiSbiAddi
	fAddiAddLbi
	fAddLbiCmpi
	fAddLbiCmpbri
	fBrcalcConstAddi
)

// fusePair reports the fused kind for an adjacent body pair, if the
// pair is in the selection.
func fusePair(a, b uopKind) (uopKind, bool) {
	switch {
	case a == uConst && b == uAddImm:
		return fConstAddi, true
	case a == uSllImm && b == uAddReg:
		return fSlliAdd, true
	case a == uAddImm && b == uAddReg:
		return fAddiAdd, true
	case a == uAddReg && b == uLwImm:
		return fAddLwi, true
	case a == uAddImm && b == uSllImm:
		return fAddiSlli, true
	case a == uAddReg && b == uAddImm:
		return fAddAddi, true
	case a == uAddReg && b == uSllImm:
		return fAddSlli, true
	case a == uAddImm && b == uSbImm:
		return fAddiSbi, true
	case a == uLwImm && b == uCmpImm:
		return fLwiCmpi, true
	case a == uLwImm && b == uCmpReg:
		return fLwiCmp, true
	case a == uLwImm && b == uCmpBrImm:
		return fLwiCmpbri, true
	case a == uLwImm && b == uCmpBrReg:
		return fLwiCmpbr, true
	case a == uAddReg && b == uLfImm:
		return fAddLfi, true
	case a == uSbImm && b == uAddReg:
		return fSbiAdd, true
	case a == uSbImm && b == uAddImm:
		return fSbiAddi, true
	case a == uFmul && b == uFadd:
		return fFmulFadd, true
	case a == uLfImm && b == uConst:
		return fLfiConst, true
	case a == uConst && b == uCmpBrReg:
		return fConstCmpbr, true
	case a == uConst && b == uCmpBrImm:
		return fConstCmpbri, true
	case a == uLbImm && b == uCmpImm:
		return fLbiCmpi, true
	case a == uLbImm && b == uCmpBrImm:
		return fLbiCmpbri, true
	case a == uAddReg && b == uLbImm:
		return fAddLbi, true
	case a == uBrCalcAbs && b == uAddImm:
		return fBrcalcAddi, true
	case a == uBrCalcAbs && b == uConst:
		return fBrcalcConst, true
	case a == uAddImm && b == uOrImm:
		return fAddiOri, true
	case a == uAddReg && b == uOrImm:
		return fAddOri, true
	case a == uConst && b == uLwImm:
		return fConstLwi, true
	case a == uLwImm && b == uAddImm:
		return fLwiAddi, true
	case a == uLwImm && b == uAddReg:
		return fLwiAdd, true
	case a == uLwImm && b == uLwImm:
		return fLwiLwi, true
	case a == uAddImm && b == uSwImm:
		return fAddiSwi, true
	case a == uAddReg && b == uSwImm:
		return fAddSwi, true
	case a == uSwImm && b == uSwImm:
		return fSwiSwi, true
	case a == uSwImm && b == uLwImm:
		return fSwiLwi, true
	case a == uAddImm && b == uLwImm:
		return fAddiLwi, true
	}
	return 0, false
}

// fuseTriple reports the fused kind for an adjacent body triple, if the
// triple is in the selection. Triples are tried before pairs.
func fuseTriple(a, b, c uopKind) (uopKind, bool) {
	switch {
	case a == uConst && b == uAddImm && c == uAddReg:
		return fConstAddiAdd, true
	case a == uSllImm && b == uAddReg && c == uLwImm:
		return fSlliAddLwi, true
	case a == uAddImm && b == uSllImm && c == uAddReg:
		return fAddiSlliAdd, true
	case a == uConst && b == uAddImm && c == uSllImm:
		return fConstAddiSlli, true
	case a == uAddReg && b == uSllImm && c == uAddReg:
		return fAddSlliAdd, true
	case a == uAddImm && b == uAddReg && c == uAddImm:
		return fAddiAddAddi, true
	case a == uAddReg && b == uAddImm && c == uSbImm:
		return fAddAddiSbi, true
	case a == uAddReg && b == uLwImm && c == uCmpImm:
		return fAddLwiCmpi, true
	case a == uAddReg && b == uLwImm && c == uCmpBrImm:
		return fAddLwiCmpbri, true
	case a == uSllImm && b == uAddReg && c == uSllImm:
		return fSlliAddSlli, true
	case a == uAddImm && b == uAddReg && c == uLfImm:
		return fAddiAddLfi, true
	case a == uAddImm && b == uSbImm && c == uAddReg:
		return fAddiSbiAdd, true
	case a == uAddImm && b == uSbImm && c == uAddImm:
		return fAddiSbiAddi, true
	case a == uAddImm && b == uAddReg && c == uLbImm:
		return fAddiAddLbi, true
	case a == uAddReg && b == uLbImm && c == uCmpImm:
		return fAddLbiCmpi, true
	case a == uAddReg && b == uLbImm && c == uCmpBrImm:
		return fAddLbiCmpbri, true
	case a == uBrCalcAbs && b == uConst && c == uAddImm:
		return fBrcalcConstAddi, true
	}
	return 0, false
}
