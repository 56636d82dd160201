package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strings"
	"unsafe"
)

// EmuState returns the emulator state attached to p. When none is
// attached yet and create is non-nil, create's result is attached first;
// of two racing attachers exactly one wins and both get its value. The
// slot belongs to package emu (its adaptive tier keeps per-program
// promotion state there) and isa never looks inside it. Holding the state
// on the program, rather than in a map keyed by the program, makes it
// live exactly as long as the program does.
func (p *Program) EmuState(create func() any) any {
	if v := p.emuState.Load(); v != nil {
		return *v
	}
	if create == nil {
		return nil
	}
	v := create()
	if p.emuState.CompareAndSwap(nil, &v) {
		return v
	}
	return *p.emuState.Load()
}

// Digest returns a SHA-256 over everything that decides how the linked
// program executes and what it reports: the machine, the entry point,
// every instruction's operational fields, the data image, and the
// function table (entries and the names traps carry). Two programs with
// equal digests are interchangeable to the emulator. It is computed on
// the first call and remembered, so programs that are never
// fingerprinted pay nothing. The leading constant 1 and the register
// fields sign-extended to 32 bits are part of the pinned format
// (TestProgramDigestsPinned, TestGeneratedDigestsPinned).
func (p *Program) Digest() [sha256.Size]byte {
	p.digestOnce.Do(func() {
		le := binary.LittleEndian
		b := make([]byte, 0, 64+36*len(p.Text)+len(p.DataImage))
		b = le.AppendUint64(b, 1)
		b = le.AppendUint64(b, uint64(p.Kind))
		b = le.AppendUint64(b, uint64(p.EntryPC))
		b = le.AppendUint64(b, uint64(len(p.Text)))
		for i := range p.Text {
			in := &p.Text[i]
			useImm := uint32(0)
			if in.UseImm {
				useImm = 1
			}
			for _, v := range [...]uint32{uint32(in.Op), uint32(in.Cond), uint32(in.Rd),
				uint32(in.Rs1), uint32(in.Rs2), uint32(in.Imm), useImm, uint32(in.BR), uint32(in.BSrc)} {
				b = le.AppendUint32(b, v)
			}
		}
		b = le.AppendUint64(b, uint64(len(p.DataImage)))
		b = append(b, p.DataImage...)
		byName := slices.Clone(p.Syms)
		slices.SortFunc(byName, func(x, y Sym) int { return strings.Compare(x.Name, y.Name) })
		for i := range byName {
			s := &byName[i]
			b = le.AppendUint64(b, uint64(s.Start))
			b = le.AppendUint64(b, uint64(len(s.Name)))
			b = append(b, s.Name...)
		}
		p.digest = sha256.Sum256(b)
	})
	return p.digest
}

// RetainedBytes is the heap the program keeps alive: the record, its
// text, its data image, and its function table with the one string
// holding every name. It is what a cache holding the program charges
// for it.
func (p *Program) RetainedBytes() int64 {
	n := int64(unsafe.Sizeof(*p)) +
		int64(unsafe.Sizeof(Inst{}))*int64(cap(p.Text)) +
		int64(cap(p.DataImage)) +
		int64(unsafe.Sizeof(Sym{}))*int64(cap(p.Syms))
	for i := range p.Syms {
		n += int64(len(p.Syms[i].Name))
	}
	return n
}
