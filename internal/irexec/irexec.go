// Package irexec is a reference interpreter for the IR. It gives MC
// programs an executable semantics independent of either machine's code
// generator, so the machine emulators can be differentially tested against
// it: the same program must produce the same output at the IR level, on the
// baseline machine, and on the branch-register machine.
package irexec

import (
	"fmt"
	"math"
	"strings"

	"branchreg/internal/ir"
)

// Layout constants (match isa so addresses look alike in diagnostics).
const (
	dataBase = 0x0010_0000
	stackTop = 0x0040_0000
	memBytes = 0x0040_0000
	maxSteps = 2_000_000_000
)

// ExitError reports a program that called exit(n) with n != 0.
type ExitError struct{ Status int32 }

func (e *ExitError) Error() string { return fmt.Sprintf("irexec: exit status %d", e.Status) }

// Machine executes an ir.Unit.
type Machine struct {
	unit    *ir.Unit
	funcs   map[string]*ir.Func
	mem     []byte
	dataSym map[string]int32
	input   []byte
	inPos   int
	out     strings.Builder
	steps   int64
	sp      int32 // frame stack pointer (grows down)
}

// New prepares a machine for the unit with the given stdin contents.
func New(u *ir.Unit, input string) (*Machine, error) {
	m := &Machine{
		unit:    u,
		funcs:   map[string]*ir.Func{},
		mem:     make([]byte, memBytes),
		dataSym: map[string]int32{},
		input:   []byte(input),
		sp:      stackTop,
	}
	for _, f := range u.Funcs {
		m.funcs[f.Name] = f
	}
	addr := int32(dataBase)
	align := func(a, n int32) int32 {
		if r := a % n; r != 0 {
			return a + n - r
		}
		return a
	}
	for i := range u.Data {
		d := &u.Data[i]
		al := int32(d.Align)
		if al == 0 {
			switch d.Kind {
			case ir.DBytes:
				al = 1
			case ir.DFloats:
				al = 8
			default:
				al = 4
			}
		}
		addr = align(addr, al)
		if _, dup := m.dataSym[d.Label]; dup {
			return nil, fmt.Errorf("irexec: duplicate data symbol %s", d.Label)
		}
		m.dataSym[d.Label] = addr
		switch d.Kind {
		case ir.DWords:
			for j, w := range d.Words {
				m.store32(addr+int32(j*4), w)
			}
			addr += int32(len(d.Words) * 4)
		case ir.DBytes:
			copy(m.mem[addr:], d.Bytes)
			addr += int32(len(d.Bytes))
		case ir.DFloats:
			for j, f := range d.Floats {
				m.storeF(addr+int32(j*8), f)
			}
			addr += int32(len(d.Floats) * 8)
		case ir.DZero:
			addr += int32(d.Size)
		}
	}
	// Apply data relocations after layout.
	for i := range u.Data {
		d := &u.Data[i]
		if d.Kind != ir.DWords {
			continue
		}
		base := m.dataSym[d.Label]
		for _, rl := range d.Relocs {
			sa, ok := m.dataSym[rl.Sym]
			if !ok {
				return nil, fmt.Errorf("irexec: %s: unknown reloc symbol %s", d.Label, rl.Sym)
			}
			off := base + int32(rl.WordIndex*4)
			m.store32(off, m.load32(off)+sa)
		}
	}
	return m, nil
}

// Output returns everything the program has written.
func (m *Machine) Output() string { return m.out.String() }

// Steps returns the number of IR instructions executed.
func (m *Machine) Steps() int64 { return m.steps }

func (m *Machine) store32(addr, v int32) {
	m.mem[addr] = byte(v)
	m.mem[addr+1] = byte(v >> 8)
	m.mem[addr+2] = byte(v >> 16)
	m.mem[addr+3] = byte(v >> 24)
}

func (m *Machine) load32(addr int32) int32 {
	return int32(m.mem[addr]) | int32(m.mem[addr+1])<<8 |
		int32(m.mem[addr+2])<<16 | int32(m.mem[addr+3])<<24
}

func (m *Machine) storeF(addr int32, f float64) {
	bits := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		m.mem[addr+int32(i)] = byte(bits >> (8 * i))
	}
}

func (m *Machine) loadF(addr int32) float64 {
	var bits uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(m.mem[addr+int32(i)]) << (8 * i)
	}
	return math.Float64frombits(bits)
}

// Run executes main and returns its exit status.
func (m *Machine) Run() (int32, error) {
	main := m.funcs["main"]
	if main == nil {
		return 0, fmt.Errorf("irexec: no main function")
	}
	v, _, err := m.call(main, nil, nil)
	if err != nil {
		if ee, ok := err.(*ExitError); ok {
			return ee.Status, nil
		}
		return 0, err
	}
	return v, nil
}

type frame struct {
	f       *ir.Func
	ints    []int32
	floats  []float64
	slotOff []int32
}

func (m *Machine) call(f *ir.Func, intArgs []int32, fltArgs []float64) (int32, float64, error) {
	if m.sp < memBytes/2 {
		return 0, 0, fmt.Errorf("irexec: stack overflow in %s", f.Name)
	}
	fr := &frame{
		f:       f,
		ints:    make([]int32, f.NumInt),
		floats:  make([]float64, f.NumFloat),
		slotOff: make([]int32, len(f.Slots)),
	}
	savedSP := m.sp
	for i, s := range f.Slots {
		al := s.Align
		if al == 0 {
			al = 4
		}
		m.sp -= s.Size
		if r := m.sp % al; r != 0 {
			m.sp -= r
		}
		fr.slotOff[i] = m.sp
	}
	defer func() { m.sp = savedSP }()

	ii, fi := 0, 0
	for _, p := range f.Params {
		if p.Float {
			fr.floats[p.R] = fltArgs[fi]
			fi++
		} else {
			fr.ints[p.R] = intArgs[ii]
			ii++
		}
	}

	blk := f.Entry()
	for {
		next, ri, rf, done, err := m.execBlock(fr, blk)
		if err != nil {
			return 0, 0, err
		}
		if done {
			return ri, rf, nil
		}
		blk = next
	}
}

func (m *Machine) execBlock(fr *frame, b *ir.Block) (next *ir.Block, ri int32, rf float64, done bool, err error) {
	f := fr.f
	for i := range b.Ins {
		in := &b.Ins[i]
		m.steps++
		if m.steps > maxSteps {
			return nil, 0, 0, false, fmt.Errorf("irexec: %s: step limit exceeded", f.Name)
		}
		rhs := func() int32 {
			if in.UseImm {
				return int32(in.Imm)
			}
			return fr.ints[in.B]
		}
		switch in.Kind {
		case ir.OpConst:
			fr.ints[in.Dst] = int32(in.Imm)
		case ir.OpConstF:
			fr.floats[in.FDst] = in.FImm
		case ir.OpAddr:
			a, ok := m.dataSym[in.Sym]
			if !ok {
				return nil, 0, 0, false, fmt.Errorf("irexec: %s: unknown symbol %s", f.Name, in.Sym)
			}
			fr.ints[in.Dst] = a + in.Off
		case ir.OpSlotAddr:
			fr.ints[in.Dst] = fr.slotOff[in.Slot] + in.Off
		case ir.OpMov:
			fr.ints[in.Dst] = fr.ints[in.A]
		case ir.OpMovF:
			fr.floats[in.FDst] = fr.floats[in.FA]
		case ir.OpAdd:
			fr.ints[in.Dst] = fr.ints[in.A] + rhs()
		case ir.OpSub:
			fr.ints[in.Dst] = fr.ints[in.A] - rhs()
		case ir.OpMul:
			fr.ints[in.Dst] = fr.ints[in.A] * rhs()
		case ir.OpDiv:
			d := rhs()
			if d == 0 {
				return nil, 0, 0, false, fmt.Errorf("irexec: %s: division by zero", f.Name)
			}
			fr.ints[in.Dst] = fr.ints[in.A] / d
		case ir.OpRem:
			d := rhs()
			if d == 0 {
				return nil, 0, 0, false, fmt.Errorf("irexec: %s: modulo by zero", f.Name)
			}
			fr.ints[in.Dst] = fr.ints[in.A] % d
		case ir.OpAnd:
			fr.ints[in.Dst] = fr.ints[in.A] & rhs()
		case ir.OpOr:
			fr.ints[in.Dst] = fr.ints[in.A] | rhs()
		case ir.OpXor:
			fr.ints[in.Dst] = fr.ints[in.A] ^ rhs()
		case ir.OpSll:
			fr.ints[in.Dst] = fr.ints[in.A] << (uint32(rhs()) & 31)
		case ir.OpSrl:
			fr.ints[in.Dst] = int32(uint32(fr.ints[in.A]) >> (uint32(rhs()) & 31))
		case ir.OpSra:
			fr.ints[in.Dst] = fr.ints[in.A] >> (uint32(rhs()) & 31)
		case ir.OpFAdd:
			fr.floats[in.FDst] = fr.floats[in.FA] + fr.floats[in.FB]
		case ir.OpFSub:
			fr.floats[in.FDst] = fr.floats[in.FA] - fr.floats[in.FB]
		case ir.OpFMul:
			fr.floats[in.FDst] = fr.floats[in.FA] * fr.floats[in.FB]
		case ir.OpFDiv:
			fr.floats[in.FDst] = fr.floats[in.FA] / fr.floats[in.FB]
		case ir.OpFNeg:
			fr.floats[in.FDst] = -fr.floats[in.FA]
		case ir.OpCvIF:
			fr.floats[in.FDst] = float64(fr.ints[in.A])
		case ir.OpCvFI:
			fr.ints[in.Dst] = int32(fr.floats[in.FA])
		case ir.OpSetCond:
			if holds(in.Cond, fr.ints[in.A], rhs()) {
				fr.ints[in.Dst] = 1
			} else {
				fr.ints[in.Dst] = 0
			}
		case ir.OpSetCondF:
			if holdsF(in.Cond, fr.floats[in.FA], fr.floats[in.FB]) {
				fr.ints[in.Dst] = 1
			} else {
				fr.ints[in.Dst] = 0
			}
		case ir.OpLoad:
			addr := fr.ints[in.A] + in.Off
			if err := m.checkAddr(f, addr, int(in.Size)); err != nil {
				return nil, 0, 0, false, err
			}
			if in.Size == 1 {
				fr.ints[in.Dst] = int32(int8(m.mem[addr]))
			} else {
				fr.ints[in.Dst] = m.load32(addr)
			}
		case ir.OpLoadF:
			addr := fr.ints[in.A] + in.Off
			if err := m.checkAddr(f, addr, 8); err != nil {
				return nil, 0, 0, false, err
			}
			fr.floats[in.FDst] = m.loadF(addr)
		case ir.OpStore:
			addr := fr.ints[in.A] + in.Off
			if err := m.checkAddr(f, addr, int(in.Size)); err != nil {
				return nil, 0, 0, false, err
			}
			if in.Size == 1 {
				m.mem[addr] = byte(fr.ints[in.B])
			} else {
				m.store32(addr, fr.ints[in.B])
			}
		case ir.OpStoreF:
			addr := fr.ints[in.A] + in.Off
			if err := m.checkAddr(f, addr, 8); err != nil {
				return nil, 0, 0, false, err
			}
			m.storeF(addr, fr.floats[in.FB])
		case ir.OpCall:
			var ia []int32
			var fa []float64
			for _, a := range in.Args {
				if a.Float {
					fa = append(fa, fr.floats[a.R])
				} else {
					ia = append(ia, fr.ints[a.R])
				}
			}
			if in.Builtin {
				rv, err := m.builtin(in.Sym, ia, fa)
				if err != nil {
					return nil, 0, 0, false, err
				}
				if in.Dst != ir.None {
					fr.ints[in.Dst] = rv
				}
				break
			}
			callee := m.funcs[in.Sym]
			if callee == nil {
				return nil, 0, 0, false, fmt.Errorf("irexec: %s: call to unknown function %s", f.Name, in.Sym)
			}
			rv, rvf, err := m.call(callee, ia, fa)
			if err != nil {
				return nil, 0, 0, false, err
			}
			if in.Dst != ir.None {
				fr.ints[in.Dst] = rv
			}
			if in.FDst != ir.None {
				fr.floats[in.FDst] = rvf
			}
		case ir.OpJump:
			return f.BlockByLabel(in.Targets[0]), 0, 0, false, nil
		case ir.OpBr:
			if holds(in.Cond, fr.ints[in.A], rhs()) {
				return f.BlockByLabel(in.Targets[0]), 0, 0, false, nil
			}
			return f.BlockByLabel(in.Targets[1]), 0, 0, false, nil
		case ir.OpBrF:
			if holdsF(in.Cond, fr.floats[in.FA], fr.floats[in.FB]) {
				return f.BlockByLabel(in.Targets[0]), 0, 0, false, nil
			}
			return f.BlockByLabel(in.Targets[1]), 0, 0, false, nil
		case ir.OpSwitch:
			v := fr.ints[in.A]
			target := in.Targets[0]
			for _, c := range in.Cases {
				if int32(c.Val) == v {
					target = c.Target
					break
				}
			}
			return f.BlockByLabel(target), 0, 0, false, nil
		case ir.OpRet:
			var rvi int32
			var rvf float64
			if in.A != ir.None {
				rvi = fr.ints[in.A]
			}
			if in.FA != ir.None {
				rvf = fr.floats[in.FA]
			}
			return nil, rvi, rvf, true, nil
		default:
			return nil, 0, 0, false, fmt.Errorf("irexec: %s: unimplemented op %v", f.Name, in.Kind)
		}
	}
	return nil, 0, 0, false, fmt.Errorf("irexec: %s: block %s fell off the end", f.Name, b.Label)
}

func (m *Machine) checkAddr(f *ir.Func, addr int32, size int) error {
	if addr < dataBase || int(addr)+size > len(m.mem) {
		return fmt.Errorf("irexec: %s: memory access out of range: %#x", f.Name, uint32(addr))
	}
	return nil
}

func (m *Machine) builtin(name string, ia []int32, fa []float64) (int32, error) {
	switch name {
	case "getchar":
		if m.inPos >= len(m.input) {
			return -1, nil
		}
		c := m.input[m.inPos]
		m.inPos++
		return int32(c), nil
	case "putchar":
		m.out.WriteByte(byte(ia[0]))
		return 0, nil
	case "putfloat":
		fmt.Fprintf(&m.out, "%.4f", fa[0])
		return 0, nil
	case "exit":
		return 0, &ExitError{Status: ia[0]}
	}
	return 0, fmt.Errorf("irexec: unknown builtin %s", name)
}

func holds(c ir.Cond, a, b int32) bool {
	switch c {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT:
		return a < b
	case ir.CondLE:
		return a <= b
	case ir.CondGT:
		return a > b
	case ir.CondGE:
		return a >= b
	}
	return false
}

func holdsF(c ir.Cond, a, b float64) bool {
	switch c {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT:
		return a < b
	case ir.CondLE:
		return a <= b
	case ir.CondGT:
		return a > b
	case ir.CondGE:
		return a >= b
	}
	return false
}

// RunSource is a convenience for tests: interpret an ir.Unit with input,
// returning output and exit status.
func RunSource(u *ir.Unit, input string) (string, int32, error) {
	m, err := New(u, input)
	if err != nil {
		return "", 0, err
	}
	status, err := m.Run()
	return m.Output(), status, err
}
