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

// Program is a complete linked or linkable unit: functions, data, and after
// Link, the flat text and data image the emulator executes.
type Program struct {
	Kind  Kind
	Funcs []*Function
	Data  []*DataItem

	// AlignWords, when positive, pads the text segment so every function
	// starts on a multiple of AlignWords instructions — the paper's §9
	// suggestion of aligning function entries on cache line boundaries to
	// reduce conflict between sequential fetches and prefetched targets.
	// Padding noops are never executed (functions end in transfers).
	AlignWords int

	// Populated by Link:
	Linked     bool
	Text       []Instr        // flat instruction memory
	EntryPC    int            // index into Text of main's first instruction
	DataImage  []byte         // initial contents of the data segment
	FuncStarts map[string]int // function name -> Text index
	FuncOfPC   []string       // Text index -> enclosing function name

	// Set at most once after Link (see identity.go): the emulator's
	// per-program state and the lazily computed content digest.
	emuState   atomic.Pointer[any]
	digestOnce sync.Once
	digest     [sha256.Size]byte
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

// Link lays out functions contiguously in the text space starting at
// TextBase, lays out data at DataBase, resolves all symbolic targets to
// immediates, and builds the data image (including jump tables of code
// addresses). Function-local labels are qualified as "func.label" in the
// global symbol table; bare function names resolve to their entry. The
// symbol tables live only for the duration of Link.
func (p *Program) Link() error {
	nsyms := len(p.Funcs)
	for _, f := range p.Funcs {
		nsyms += len(f.Labels)
	}
	codeSyms := make(map[string]int32, nsyms) // global label -> byte address in text space
	dataSyms := make(map[string]int32, len(p.Data))
	p.FuncStarts = make(map[string]int, len(p.Funcs))

	// Pass 1: assign addresses.
	idx := 0
	pad := make(map[string]int) // padding noops inserted before each function
	for _, f := range p.Funcs {
		if f.Kind != p.Kind {
			return fmt.Errorf("isa: function %s targets %v, program is %v", f.Name, f.Kind, p.Kind)
		}
		if _, dup := codeSyms[f.Name]; dup {
			return fmt.Errorf("isa: duplicate function %s", f.Name)
		}
		if p.AlignWords > 1 {
			if r := idx % p.AlignWords; r != 0 {
				pad[f.Name] = p.AlignWords - r
				idx += p.AlignWords - r
			}
		}
		p.FuncStarts[f.Name] = idx
		codeSyms[f.Name] = IndexToAddr(idx)
		for l, li := range f.Labels {
			if li > len(f.Code) {
				return fmt.Errorf("isa: label %s.%s out of range", f.Name, l)
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
	for _, d := range p.Data {
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
			return fmt.Errorf("isa: duplicate data symbol %s", d.Label)
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
	for _, d := range p.Data {
		off := dataSyms[d.Label] - DataBase
		switch d.Kind {
		case DataWords:
			for i, w := range d.Words {
				put32(off+int32(i*4), w)
			}
			for _, rl := range d.Relocs {
				sa, ok := dataSyms[rl.Sym]
				if !ok {
					return fmt.Errorf("isa: data item %s: unknown reloc symbol %s", d.Label, rl.Sym)
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
					return fmt.Errorf("isa: jump table %s: unknown code label %s", d.Label, lbl)
				}
				put32(off+int32(i*4), a)
			}
		}
	}
	p.DataImage = img

	// Pass 2: resolve instruction targets and flatten into slices pass 1
	// sized (idx counts every instruction and padding noop).
	p.Text = make([]Instr, 0, idx)
	p.FuncOfPC = make([]string, 0, idx)
	for _, f := range p.Funcs {
		for i := 0; i < pad[f.Name]; i++ {
			p.Text = append(p.Text, Instr{Op: OpNop, Comment: "alignment pad"})
			p.FuncOfPC = append(p.FuncOfPC, "")
		}
		start := p.FuncStarts[f.Name]
		for i := range f.Code {
			in := f.Code[i] // copy
			here := IndexToAddr(start + i)
			if in.Target != "" {
				taddr, ok := resolveCode(codeSyms, f, in.Target)
				if !ok {
					return fmt.Errorf("isa: %s: unresolved code label %q", f.Name, in.Target)
				}
				switch in.Op {
				case OpB, OpCall, OpBrCalc:
					if in.Op == OpBrCalc && in.Rs1 >= 0 {
						_, lo := SplitAddr(taddr)
						in.Imm = lo
					} else {
						in.Imm = taddr - here // PC-relative displacement
					}
				case OpSethi:
					hi, _ := SplitAddr(taddr)
					in.Imm = hi
				default:
					return fmt.Errorf("isa: %s: op %v cannot take code target", f.Name, in.Op)
				}
				in.UseImm = true
				if in.Comment == "" {
					in.Comment = in.Target
				}
				in.Target = ""
			}
			if in.DataTarget != "" {
				daddr, ok := dataSyms[in.DataTarget]
				if !ok {
					return fmt.Errorf("isa: %s: unresolved data label %q", f.Name, in.DataTarget)
				}
				hi, lo := SplitAddr(daddr)
				if in.Op == OpSethi {
					in.Imm = hi
				} else if in.Lo {
					in.Imm = lo
				} else {
					in.Imm = daddr
				}
				in.UseImm = true
				if in.Comment == "" {
					in.Comment = in.DataTarget
				}
				in.DataTarget = ""
				in.Lo = false
			}
			p.Text = append(p.Text, in)
			p.FuncOfPC = append(p.FuncOfPC, f.Name)
		}
	}

	entry, ok := p.FuncStarts["main"]
	if !ok {
		return fmt.Errorf("isa: program has no main")
	}
	p.EntryPC = entry
	p.Linked = true
	return nil
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

// Listing renders every function in the program.
func (p *Program) Listing() string {
	var b strings.Builder
	for _, f := range p.Funcs {
		b.WriteString(f.Listing())
		b.WriteByte('\n')
	}
	return b.String()
}
