package isa

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Function is an assembled-but-unlinked unit of code for one machine: a
// flat instruction list plus a label table mapping label names to
// instruction indices.
type Function struct {
	Name   string
	Kind   Kind
	Code   []Instr
	Labels map[string]int // label -> index into Code
}

// NewFunction returns an empty function targeting machine k.
func NewFunction(name string, k Kind) *Function {
	return &Function{Name: name, Kind: k, Labels: map[string]int{}}
}

// Emit appends an instruction and returns its index.
func (f *Function) Emit(in Instr) int {
	f.Code = append(f.Code, in)
	return len(f.Code) - 1
}

// Bind attaches label to the next emitted instruction position.
func (f *Function) Bind(label string) {
	f.Labels[label] = len(f.Code)
}

// Listing renders the function as labeled RTLs, one per line.
func (f *Function) Listing() string {
	byIndex := map[int][]string{}
	for l, i := range f.Labels {
		byIndex[i] = append(byIndex[i], l)
	}
	for _, ls := range byIndex {
		sort.Strings(ls)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: /* %s */\n", f.Name, f.Kind)
	for i, in := range f.Code {
		for _, l := range byIndex[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "\t%s", in.RTL(f.Kind))
		if in.Comment != "" {
			fmt.Fprintf(&b, " /* %s */", in.Comment)
		}
		b.WriteByte('\n')
	}
	for _, l := range byIndex[len(f.Code)] {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	return b.String()
}

// DataKind discriminates static data items.
type DataKind int

const (
	DataWords DataKind = iota // initialized 32-bit words
	DataBytes                 // initialized bytes (strings, char arrays)
	DataFloat                 // initialized float64 values (two words each)
	DataZero                  // zero-initialized region of Size bytes
	DataAddrs                 // words holding code label addresses (jump tables)
)

// DataReloc marks a word in a DataWords item that holds the address of a
// data symbol: the linker adds the symbol's resolved address to the word.
type DataReloc struct {
	WordIndex int
	Sym       string
}

// DataItem is one labeled object in the static data segment.
type DataItem struct {
	Label  string
	Kind   DataKind
	Words  []int32
	Bytes  []byte
	Floats []float64
	Size   int         // DataZero: byte size
	Addrs  []string    // DataAddrs: code labels resolved at link time
	Align  int         // required alignment (defaults: words/addrs 4, floats 8, bytes 1)
	Relocs []DataReloc // DataWords: data-symbol address fixups
}

// Unit is the pre-link form of a program for one machine: its functions
// with their labels and comments, and its data items. Link turns it into
// the flat Program the emulator executes; listings and the figure tests
// read the unit.
type Unit struct {
	Kind  Kind
	Funcs []*Function
	Data  []*DataItem
}

// Inst is one linked instruction: an Instr with its symbolic fields
// resolved into Imm and its register fields narrowed to int8 (registers
// are at most 31, and -1 marks an unused source). It holds no pointers,
// so a linked program's text is memory the collector never scans (the
// size is pinned by TestInstSize).
type Inst struct {
	Op     Op
	Cond   Cond
	UseImm bool // the encodings' i bit, the one flag left after Link
	Rd     int8
	Rs1    int8
	Rs2    int8
	BR     int8
	BSrc   int8
	Imm    int32
}

// Instr widens a linked instruction back to the assembler's record, so
// RTL and Encode serve both forms: Link clears Target, DataTarget and Lo,
// and neither reads Comment.
func (in *Inst) Instr() Instr {
	return Instr{Op: in.Op, Cond: in.Cond, UseImm: in.UseImm, Imm: in.Imm,
		Rd: int(in.Rd), Rs1: int(in.Rs1), Rs2: int(in.Rs2), BR: int(in.BR), BSrc: int(in.BSrc)}
}

// Sym is one function's entry in a linked program's function table: the
// Text range [Start, End) its code occupies (alignment pads lie outside
// every range) and its name.
type Sym struct {
	Name       string
	Start, End int32
}

// Program is a linked program: flat text, the initial data image, the
// entry point and a function table sorted by Start. It keeps nothing of
// the symbolic form Link started from.
type Program struct {
	Kind      Kind
	Text      []Inst // flat instruction memory, alignment pads included
	DataImage []byte // initial contents of the data segment
	EntryPC   int    // index into Text of main's first instruction
	Syms      []Sym  // function table, sorted by Start

	// Set at most once after Link (see identity.go): the emulator's
	// per-program state and the lazily computed content digest.
	emuState   atomic.Pointer[any]
	digestOnce sync.Once
	digest     [sha256.Size]byte
}

// FuncAt returns the name of the function whose code holds Text index i,
// or "" for an alignment pad or an index outside the text.
func (p *Program) FuncAt(i int) string {
	j := sort.Search(len(p.Syms), func(j int) bool { return int(p.Syms[j].Start) > i }) - 1
	if j >= 0 && i < int(p.Syms[j].End) {
		return p.Syms[j].Name
	}
	return ""
}

// AddrToIndex converts an instruction byte address to a Text index.
func (p *Program) AddrToIndex(addr int32) (int, error) {
	off := addr - TextBase
	if off < 0 || off%WordSize != 0 || int(off/WordSize) >= len(p.Text) {
		return 0, fmt.Errorf("isa: bad instruction address %#x", uint32(addr))
	}
	return int(off / WordSize), nil
}

// IndexToAddr converts a Text index to an instruction byte address.
func IndexToAddr(i int) int32 { return TextBase + int32(i)*WordSize }

// Link lays out u's functions contiguously in the text space starting at
// TextBase, lays out data at DataBase, resolves all symbolic targets to
// immediates, and builds the data image (including jump tables of code
// addresses). Function-local labels are qualified as "func.label" in the
// global symbol table; bare function names resolve to their entry. The
// symbol tables live only for the duration of Link.
//
// alignWords > 1 pads the text so every function starts on a multiple of
// alignWords instructions — the paper's §9 suggestion of aligning
// function entries on cache line boundaries to reduce conflict between
// sequential fetches and prefetched targets. Padding noops are never
// executed (functions end in transfers).
func Link(u *Unit, alignWords int) (*Program, error) {
	// The function table's names are copied into one string that every
	// entry slices, so the table keeps neither the compiler's strings nor
	// the source they point into alive.
	nsyms, nameBytes := len(u.Funcs), 0
	for _, f := range u.Funcs {
		nsyms += len(f.Labels)
		nameBytes += len(f.Name)
	}
	var names strings.Builder
	names.Grow(nameBytes)
	for _, f := range u.Funcs {
		names.WriteString(f.Name)
	}
	codeSyms := make(map[string]int32, nsyms) // global label -> byte address in text space
	dataSyms := make(map[string]int32, len(u.Data))
	p := &Program{Kind: u.Kind, Syms: make([]Sym, len(u.Funcs))}

	// Pass 1: assign addresses, filling the function table in layout (so
	// Start) order.
	idx := 0
	all, off := names.String(), 0
	for fi, f := range u.Funcs {
		if f.Kind != u.Kind {
			return nil, fmt.Errorf("isa: function %s targets %v, program is %v", f.Name, f.Kind, u.Kind)
		}
		if _, dup := codeSyms[f.Name]; dup {
			return nil, fmt.Errorf("isa: duplicate function %s", f.Name)
		}
		if alignWords > 1 {
			if r := idx % alignWords; r != 0 {
				idx += alignWords - r
			}
		}
		p.Syms[fi] = Sym{Name: all[off : off+len(f.Name)], Start: int32(idx), End: int32(idx + len(f.Code))}
		off += len(f.Name)
		codeSyms[f.Name] = IndexToAddr(idx)
		for l, li := range f.Labels {
			if li > len(f.Code) {
				return nil, fmt.Errorf("isa: label %s.%s out of range", f.Name, l)
			}
			codeSyms[f.Name+"."+l] = IndexToAddr(idx + li)
		}
		idx += len(f.Code)
	}

	// Data layout.
	addr := int32(DataBase)
	align := func(a int32, n int32) int32 {
		if r := a % n; r != 0 {
			return a + n - r
		}
		return a
	}
	for _, d := range u.Data {
		al := int32(d.Align)
		if al == 0 {
			switch d.Kind {
			case DataBytes:
				al = 1
			case DataFloat:
				al = 8
			default:
				al = 4
			}
		}
		addr = align(addr, al)
		if _, dup := dataSyms[d.Label]; dup {
			return nil, fmt.Errorf("isa: duplicate data symbol %s", d.Label)
		}
		dataSyms[d.Label] = addr
		addr += int32(d.byteSize())
	}
	dataLimit := align(addr, 8) // first free byte address after static data

	// Build data image.
	img := make([]byte, dataLimit-DataBase)
	put32 := func(off int32, v int32) {
		img[off] = byte(v)
		img[off+1] = byte(v >> 8)
		img[off+2] = byte(v >> 16)
		img[off+3] = byte(v >> 24)
	}
	for _, d := range u.Data {
		off := dataSyms[d.Label] - DataBase
		switch d.Kind {
		case DataWords:
			for i, w := range d.Words {
				put32(off+int32(i*4), w)
			}
			for _, rl := range d.Relocs {
				sa, ok := dataSyms[rl.Sym]
				if !ok {
					return nil, fmt.Errorf("isa: data item %s: unknown reloc symbol %s", d.Label, rl.Sym)
				}
				put32(off+int32(rl.WordIndex*4), d.Words[rl.WordIndex]+sa)
			}
		case DataBytes:
			copy(img[off:], d.Bytes)
		case DataFloat:
			for i, f := range d.Floats {
				bits := floatBits(f)
				put32(off+int32(i*8), int32(bits))
				put32(off+int32(i*8+4), int32(bits>>32))
			}
		case DataZero:
			// already zero
		case DataAddrs:
			for i, lbl := range d.Addrs {
				a, ok := codeSyms[lbl]
				if !ok {
					return nil, fmt.Errorf("isa: jump table %s: unknown code label %s", d.Label, lbl)
				}
				put32(off+int32(i*4), a)
			}
		}
	}
	p.DataImage = img

	// Pass 2: resolve instruction targets and narrow each instruction
	// into the text pass 1 sized (idx counts every instruction and
	// padding noop; a pad is the zero Inst, a nop).
	p.Text = make([]Inst, idx)
	for fi, f := range u.Funcs {
		start := int(p.Syms[fi].Start)
		for i := range f.Code {
			in := &f.Code[i]
			here := IndexToAddr(start + i)
			imm, useImm := in.Imm, in.UseImm
			if in.Target != "" {
				taddr, ok := resolveCode(codeSyms, f, in.Target)
				if !ok {
					return nil, fmt.Errorf("isa: %s: unresolved code label %q", f.Name, in.Target)
				}
				switch in.Op {
				case OpB, OpCall, OpBrCalc:
					if in.Op == OpBrCalc && in.Rs1 >= 0 {
						_, lo := SplitAddr(taddr)
						imm = lo
					} else {
						imm = taddr - here // PC-relative displacement
					}
				case OpSethi:
					hi, _ := SplitAddr(taddr)
					imm = hi
				default:
					return nil, fmt.Errorf("isa: %s: op %v cannot take code target", f.Name, in.Op)
				}
				useImm = true
			}
			if in.DataTarget != "" {
				daddr, ok := dataSyms[in.DataTarget]
				if !ok {
					return nil, fmt.Errorf("isa: %s: unresolved data label %q", f.Name, in.DataTarget)
				}
				hi, lo := SplitAddr(daddr)
				if in.Op == OpSethi {
					imm = hi
				} else if in.Lo {
					imm = lo
				} else {
					imm = daddr
				}
				useImm = true
			}
			out := Inst{Op: in.Op, Cond: in.Cond, UseImm: useImm, Imm: imm,
				Rd: int8(in.Rd), Rs1: int8(in.Rs1), Rs2: int8(in.Rs2), BR: int8(in.BR), BSrc: int8(in.BSrc)}
			if int(out.Rd) != in.Rd || int(out.Rs1) != in.Rs1 || int(out.Rs2) != in.Rs2 ||
				int(out.BR) != in.BR || int(out.BSrc) != in.BSrc {
				return nil, fmt.Errorf("isa: %s: register field out of range in %s", f.Name, in.RTL(u.Kind))
			}
			p.Text[start+i] = out
		}
	}

	entry, ok := codeSyms["main"]
	if !ok {
		return nil, fmt.Errorf("isa: program has no main")
	}
	p.EntryPC = int((entry - TextBase) / WordSize)
	return p, nil
}

// resolveCode resolves a code label, preferring f-local labels, then global
// function names, then any qualified label.
func resolveCode(codeSyms map[string]int32, f *Function, label string) (int32, bool) {
	if a, ok := codeSyms[f.Name+"."+label]; ok {
		return a, true
	}
	if a, ok := codeSyms[label]; ok {
		return a, true
	}
	return 0, false
}

func (d *DataItem) byteSize() int {
	switch d.Kind {
	case DataWords:
		return len(d.Words) * 4
	case DataBytes:
		return len(d.Bytes)
	case DataFloat:
		return len(d.Floats) * 8
	case DataZero:
		return d.Size
	case DataAddrs:
		return len(d.Addrs) * 4
	}
	return 0
}

// Listing renders every function in the unit.
func (u *Unit) Listing() string {
	var b strings.Builder
	for _, f := range u.Funcs {
		b.WriteString(f.Listing())
		b.WriteByte('\n')
	}
	return b.String()
}
