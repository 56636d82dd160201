package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
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
// fingerprinted pay nothing; a program must not be re-linked after it.
func (p *Program) Digest() [sha256.Size]byte {
	p.digestOnce.Do(func() {
		le := binary.LittleEndian
		b := make([]byte, 0, 64+36*len(p.Text)+len(p.DataImage))
		linked := uint64(0)
		if p.Linked {
			linked = 1
		}
		b = le.AppendUint64(b, linked)
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
		names := make([]string, 0, len(p.FuncStarts))
		for name := range p.FuncStarts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b = le.AppendUint64(b, uint64(p.FuncStarts[name]))
			b = le.AppendUint64(b, uint64(len(name)))
			b = append(b, name...)
		}
		p.digest = sha256.Sum256(b)
	})
	return p.digest
}

// RetainedBytes estimates the heap the program keeps alive: its
// functions' instruction lists and label tables, its data items, the
// linked text with its per-instruction function names, the function
// table and the data image. It is what a cache holding the program
// charges for it.
// Slices count by capacity; a map entry counts its key's bytes plus
// twice its slot (key header and value), which covers the table's
// control bytes and spare capacity at a typical load.
func (p *Program) RetainedBytes() int64 {
	const (
		instrSize = int64(unsafe.Sizeof(Instr{}))
		strSize   = int64(unsafe.Sizeof(""))
		entrySize = 2 * (strSize + 8)
	)
	n := int64(unsafe.Sizeof(*p))
	for _, f := range p.Funcs {
		n += int64(unsafe.Sizeof(*f)) + int64(cap(f.Code))*instrSize
		for i := range f.Code {
			in := &f.Code[i]
			n += int64(len(in.Target) + len(in.DataTarget) + len(in.Comment))
		}
		for l := range f.Labels {
			n += int64(len(l)) + entrySize
		}
	}
	for _, d := range p.Data {
		n += int64(unsafe.Sizeof(*d)) + int64(len(d.Label)) +
			4*int64(cap(d.Words)) + int64(cap(d.Bytes)) + 8*int64(cap(d.Floats)) +
			strSize*int64(cap(d.Addrs)) + int64(unsafe.Sizeof(DataReloc{}))*int64(cap(d.Relocs))
	}
	n += instrSize*int64(cap(p.Text)) + strSize*int64(cap(p.FuncOfPC))
	n += entrySize * int64(len(p.FuncStarts))
	n += int64(cap(p.DataImage))
	return n
}
