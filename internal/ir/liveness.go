package ir

// Uses appends the integer and float vregs read by the instruction to the
// provided slices and returns them.
func (in *Ins) Uses(ints, floats []Reg) ([]Reg, []Reg) {
	addI := func(r Reg) {
		if r != None {
			ints = append(ints, r)
		}
	}
	addF := func(r Reg) {
		if r != None {
			floats = append(floats, r)
		}
	}
	switch in.Kind {
	case OpConst, OpConstF, OpAddr, OpSlotAddr, OpJump:
	case OpMov:
		addI(in.A)
	case OpMovF:
		addF(in.FA)
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		addF(in.FA)
		addF(in.FB)
	case OpFNeg:
		addF(in.FA)
	case OpCvIF:
		addI(in.A)
	case OpCvFI:
		addF(in.FA)
	case OpSetCond:
		addI(in.A)
		if !in.UseImm {
			addI(in.B)
		}
	case OpSetCondF:
		addF(in.FA)
		addF(in.FB)
	case OpLoad, OpLoadF:
		addI(in.A)
	case OpStore:
		addI(in.A)
		addI(in.B)
	case OpStoreF:
		addI(in.A)
		addF(in.FB)
	case OpCall:
		for _, a := range in.Args {
			if a.Float {
				addF(a.R)
			} else {
				addI(a.R)
			}
		}
	case OpBr:
		addI(in.A)
		if !in.UseImm {
			addI(in.B)
		}
	case OpBrF:
		addF(in.FA)
		addF(in.FB)
	case OpSwitch:
		addI(in.A)
	case OpRet:
		addI(in.A)
		addF(in.FA)
	default:
		if in.Kind.IsBinALU() {
			addI(in.A)
			if !in.UseImm {
				addI(in.B)
			}
		}
	}
	return ints, floats
}

// Defs returns the integer and float vregs written by the instruction
// (None when absent).
func (in *Ins) Defs() (Reg, Reg) {
	switch in.Kind {
	case OpConst, OpAddr, OpSlotAddr, OpMov, OpCvFI, OpSetCond, OpSetCondF, OpLoad:
		return in.Dst, None
	case OpConstF, OpMovF, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg, OpCvIF, OpLoadF:
		return None, in.FDst
	case OpCall:
		return in.Dst, in.FDst
	default:
		if in.Kind.IsBinALU() {
			return in.Dst, None
		}
	}
	return None, None
}

// RegSet is a dense bit set over vreg numbers.
type RegSet []uint64

// NewRegSet returns a set sized for n registers.
func NewRegSet(n int) RegSet { return make(RegSet, (n+63)/64) }

// Has reports membership.
func (s RegSet) Has(r Reg) bool {
	if r < 0 || int(r)/64 >= len(s) {
		return false
	}
	return s[r/64]&(1<<(uint(r)%64)) != 0
}

// Add inserts r, reporting whether the set changed.
func (s RegSet) Add(r Reg) bool {
	if r < 0 {
		return false
	}
	w, b := r/64, uint(r)%64
	if s[w]&(1<<b) != 0 {
		return false
	}
	s[w] |= 1 << b
	return true
}

// Remove deletes r.
func (s RegSet) Remove(r Reg) {
	if r >= 0 && int(r)/64 < len(s) {
		s[r/64] &^= 1 << (uint(r) % 64)
	}
}

// UnionWith adds all of t, reporting whether the set changed.
func (s RegSet) UnionWith(t RegSet) bool {
	changed := false
	for i := range t {
		if t[i]&^s[i] != 0 {
			s[i] |= t[i]
			changed = true
		}
	}
	return changed
}

// Count returns the number of members.
func (s RegSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Liveness holds per-block live-in/live-out sets for one register class.
type Liveness struct {
	In  []RegSet // indexed by Block.Index
	Out []RegSet
}

// ComputeLiveness computes live-in/out sets for the integer and float vreg
// classes via the standard backward dataflow iteration. Every set of one
// class is carved from a single backing array (capacity-limited, so no
// two sets share a word), which keeps the analysis at a handful of
// allocations however many blocks and iterations it takes.
func (f *Func) ComputeLiveness() (intLive, floatLive *Liveness) {
	n := len(f.Blocks)
	wi, wf := (f.NumInt+63)/64, (f.NumFloat+63)/64
	// Per class: in, out, use and def for every block.
	sets := make([]RegSet, 8*n)
	carve(sets[:4*n], make(RegSet, 4*n*wi), wi)
	carve(sets[4*n:], make(RegSet, 4*n*wf), wf)
	intLive = &Liveness{In: sets[0:n:n], Out: sets[n : 2*n : 2*n]}
	useI, defI := sets[2*n:3*n], sets[3*n:4*n]
	floatLive = &Liveness{In: sets[4*n : 5*n : 5*n], Out: sets[5*n : 6*n : 6*n]}
	useF, defF := sets[6*n:7*n], sets[7*n:]
	var ibuf, fbuf []Reg
	for i, b := range f.Blocks {
		for j := range b.Ins {
			in := &b.Ins[j]
			ibuf, fbuf = in.Uses(ibuf[:0], fbuf[:0])
			for _, r := range ibuf {
				if !defI[i].Has(r) {
					useI[i].Add(r)
				}
			}
			for _, r := range fbuf {
				if !defF[i].Has(r) {
					useF[i].Add(r)
				}
			}
			di, df := in.Defs()
			if di != None {
				defI[i].Add(di)
			}
			if df != None {
				defF[i].Add(df)
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			for _, s := range b.Succs {
				if intLive.Out[i].UnionWith(intLive.In[s.Index]) {
					changed = true
				}
				if floatLive.Out[i].UnionWith(floatLive.In[s.Index]) {
					changed = true
				}
			}
			if flowIn(intLive.In[i], intLive.Out[i], useI[i], defI[i]) {
				changed = true
			}
			if flowIn(floatLive.In[i], floatLive.Out[i], useF[i], defF[i]) {
				changed = true
			}
		}
	}
	return intLive, floatLive
}

// carve splits words into len(dst) sets of w words each, capping every
// set's capacity at its own words.
func carve(dst []RegSet, words RegSet, w int) {
	for i := range dst {
		dst[i] = words[i*w : (i+1)*w : (i+1)*w]
	}
}

// flowIn adds use ∪ (out − def) to in word by word, reporting whether in
// changed.
func flowIn(in, out, use, def RegSet) bool {
	changed := false
	for w := range in {
		if v := use[w] | out[w]&^def[w]; v&^in[w] != 0 {
			in[w] |= v
			changed = true
		}
	}
	return changed
}
