// Package ir defines the machine-independent three-address intermediate
// representation the MC compiler lowers to, together with the CFG analyses
// (dominators, natural loops, liveness) that both code generators and the
// branch-register optimizer build on.
package ir

import "fmt"

// Reg is a virtual register number; negative means "none". Integer and
// floating virtual registers are separate namespaces distinguished by
// context (fields named F* hold float registers).
type Reg int32

// None marks an absent register operand.
const None Reg = -1

// OpKind enumerates IR operations.
type OpKind uint8

const (
	// Data movement and constants.
	OpConst    OpKind = iota // Dst = Imm
	OpConstF                 // FDst = FImm
	OpAddr                   // Dst = address of data symbol Sym (+ Off)
	OpSlotAddr               // Dst = address of stack slot Slot (+ Off)
	OpMov                    // Dst = A
	OpMovF                   // FDst = FA

	// Integer arithmetic: Dst = A <ALU> rhs, where rhs is register B or
	// immediate Imm (UseImm).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra

	// Floating arithmetic.
	OpFAdd // FDst = FA op FB
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg // FDst = -FA
	OpCvIF // FDst = (float) A
	OpCvFI // Dst  = (int) FA

	// SetCond materializes a comparison result as 0/1: Dst = A Cond rhs.
	OpSetCond
	// SetCondF: Dst = FA Cond FB.
	OpSetCondF

	// Memory. Size is 1 (signed byte), 4 (word) or 8 (float).
	OpLoad   // Dst = M[A + Off]  (Size 1 or 4)
	OpLoadF  // FDst = M[A + Off] (Size 8)
	OpStore  // M[A + Off] = B    (Size 1 or 4; B is the value)
	OpStoreF // M[A + Off] = FB

	// OpCall calls Sym with Args; Dst/FDst receives the result when the
	// callee returns a value.
	OpCall

	// Terminators.
	OpJump   // goto Targets[0]
	OpBr     // if A Cond rhs goto Targets[0] else Targets[1]
	OpBrF    // if FA Cond FB goto Targets[0] else Targets[1]
	OpSwitch // dispatch on A over Cases; default Targets[0]
	OpRet    // return A / FA / nothing

	NumOpKinds
)

var opKindNames = [...]string{
	OpConst: "const", OpConstF: "constf", OpAddr: "addr", OpSlotAddr: "slotaddr",
	OpMov: "mov", OpMovF: "movf", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra", OpFAdd: "fadd", OpFSub: "fsub",
	OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg", OpCvIF: "cvif",
	OpCvFI: "cvfi", OpSetCond: "setcc", OpSetCondF: "setccf", OpLoad: "load",
	OpLoadF: "loadf", OpStore: "store", OpStoreF: "storef", OpCall: "call",
	OpJump: "jump", OpBr: "br", OpBrF: "brf", OpSwitch: "switch", OpRet: "ret",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) && opKindNames[k] != "" {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsTerm reports whether the op terminates a basic block.
func (k OpKind) IsTerm() bool {
	return k == OpJump || k == OpBr || k == OpBrF || k == OpSwitch || k == OpRet
}

// IsBinALU reports whether the op is an integer ALU operation.
func (k OpKind) IsBinALU() bool { return k >= OpAdd && k <= OpSra }

// Cond mirrors isa conditions at the IR level.
type Cond uint8

const (
	CondNone Cond = iota
	CondEQ
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

var condStrs = [...]string{"?", "==", "!=", "<", "<=", ">", ">="}

func (c Cond) String() string {
	if int(c) < len(condStrs) {
		return condStrs[c]
	}
	return "?"
}

// Negate returns the complementary condition.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondLE:
		return CondGT
	case CondGT:
		return CondLE
	case CondGE:
		return CondLT
	}
	return c
}

// Swap returns the condition with operands exchanged (a c b == b Swap(c) a).
func (c Cond) Swap() Cond {
	switch c {
	case CondLT:
		return CondGT
	case CondLE:
		return CondGE
	case CondGT:
		return CondLT
	case CondGE:
		return CondLE
	}
	return c
}

// Arg is one call argument.
type Arg struct {
	R     Reg
	Float bool
}

// SwitchCase is one arm of an OpSwitch.
type SwitchCase struct {
	Val    int64
	Target string
}

// Ins is one IR instruction. Every block holds its instructions by
// value, so the record is kept small: narrow kinds, 32-bit registers
// and sizes, and the one-byte fields packed at the front (the size is
// pinned by TestInsSize).
type Ins struct {
	Kind    OpKind
	Cond    Cond
	UseImm  bool
	Builtin bool  // OpCall to a runtime builtin (trap)
	Off     int32 // OpLoad/OpStore displacement; OpAddr offset
	Slot    int32 // OpSlotAddr stack slot index
	Size    int32 // memory operand size
	Dst     Reg   // integer destination
	FDst    Reg   // float destination
	A, B    Reg   // integer sources
	FA, FB  Reg   // float sources
	Imm     int64
	FImm    float64
	Sym     string // OpAddr data symbol / OpCall callee
	Args    []Arg
	Cases   []SwitchCase
	// Targets: OpJump {next}; OpBr/OpBrF {true, false}; OpSwitch {default}.
	Targets []string
}

// Block is a basic block.
type Block struct {
	Label string
	Ins   []Ins // last instruction is the terminator

	// CFG links, rebuilt by Func.BuildCFG.
	Succs []*Block
	Preds []*Block

	// Analysis results.
	Index  int    // position in Func.Blocks
	RPO    int    // reverse postorder number
	IDom   *Block // immediate dominator (nil for entry)
	Depth  int    // loop nesting depth (0 = not in a loop)
	Freq   int64  // static frequency estimate (10^Depth, capped)
	InLoop *Loop  // innermost containing loop, if any

	// Dominator-tree links and entry/exit numbers (0 when unreachable),
	// set by ComputeDominators for Dominates.
	domChild, domNext *Block
	domIn, domOut     int32
}

// Term returns the block terminator.
func (b *Block) Term() *Ins {
	if len(b.Ins) == 0 {
		return nil
	}
	last := &b.Ins[len(b.Ins)-1]
	if !last.Kind.IsTerm() {
		return nil
	}
	return last
}

// Loop is a natural loop.
type Loop struct {
	Header    *Block
	Blocks    map[*Block]bool
	Parent    *Loop
	Depth     int
	Preheader *Block // block whose single successor is the header, outside the loop
	HasCall   bool   // any block in the loop contains a call
}

// Contains reports whether b is in the loop.
func (l *Loop) Contains(b *Block) bool { return l.Blocks[b] }

// SlotInfo describes one stack slot (local arrays, address-taken scalars).
type SlotInfo struct {
	Name  string
	Size  int32
	Align int32
}

// Func is one IR function.
type Func struct {
	Name         string
	NumInt       int // number of integer vregs
	NumFloat     int // number of float vregs
	Params       []Arg
	RetFloat     bool
	HasRet       bool
	Slots        []SlotInfo
	Blocks       []*Block
	blockByLabel map[string]*Block

	Loops []*Loop // populated by FindLoops, outermost first
}

// NewFunc returns an empty function.
func NewFunc(name string) *Func {
	return &Func{Name: name, blockByLabel: map[string]*Block{}}
}

// NewBlock appends a new block with the given label.
func (f *Func) NewBlock(label string) *Block {
	b := &Block{Label: label, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	f.blockByLabel[label] = b
	return b
}

// BlockByLabel returns the block with the given label, or nil.
func (f *Func) BlockByLabel(label string) *Block {
	if f.blockByLabel == nil {
		f.blockByLabel = map[string]*Block{}
		for _, b := range f.Blocks {
			f.blockByLabel[b.Label] = b
		}
	}
	return f.blockByLabel[label]
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewIntReg allocates a fresh integer vreg.
func (f *Func) NewIntReg() Reg {
	r := Reg(f.NumInt)
	f.NumInt++
	return r
}

// NewFloatReg allocates a fresh float vreg.
func (f *Func) NewFloatReg() Reg {
	r := Reg(f.NumFloat)
	f.NumFloat++
	return r
}

// Unit is a lowered translation unit: functions plus static data.
type Unit struct {
	Funcs []*Func
	Data  []Datum
}

// DatumKind mirrors isa data kinds at the IR level.
type DatumKind int

const (
	DWords DatumKind = iota
	DBytes
	DFloats
	DZero
)

// Reloc marks a word in a Datum that holds the address of another data
// symbol (e.g. a global char* initialized with a string literal); the
// linker adds the symbol's address to the word.
type Reloc struct {
	WordIndex int
	Sym       string
}

// Datum is one static data object.
type Datum struct {
	Label  string
	Kind   DatumKind
	Words  []int32
	Bytes  []byte
	Floats []float64
	Size   int
	Align  int
	Relocs []Reloc
}
