package ir

import (
	"cmp"
	"fmt"
	"slices"
)

// BuildCFG recomputes successor/predecessor edges from block terminators.
// Every block must end in a terminator and every branch target must name an
// existing block.
func (f *Func) BuildCFG() error {
	if f.blockByLabel == nil {
		f.blockByLabel = make(map[string]*Block, len(f.Blocks))
	} else {
		clear(f.blockByLabel)
	}
	for i, b := range f.Blocks {
		b.Index = i
		f.blockByLabel[b.Label] = b
		b.Succs = b.Succs[:0]
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			return fmt.Errorf("ir: %s: block %s lacks a terminator", f.Name, b.Label)
		}
		add := func(label string) error {
			s := f.blockByLabel[label]
			if s == nil {
				return fmt.Errorf("ir: %s: block %s targets unknown label %s", f.Name, b.Label, label)
			}
			b.Succs = append(b.Succs, s)
			return nil
		}
		switch t.Kind {
		case OpJump, OpBr, OpBrF:
			for _, l := range t.Targets {
				if err := add(l); err != nil {
					return err
				}
			}
		case OpSwitch:
			if err := add(t.Targets[0]); err != nil {
				return err
			}
			for _, c := range t.Cases {
				if err := add(c.Target); err != nil {
					return err
				}
			}
		case OpRet:
			// no successors
		}
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
	f.numberRPO()
	return nil
}

// numberRPO assigns reverse-postorder numbers from the entry; blocks the
// entry does not reach get -1.
func (f *Func) numberRPO() {
	for _, b := range f.Blocks {
		b.RPO = -1
	}
	if len(f.Blocks) == 0 {
		return
	}
	// Number in postorder first, with -2 marking a block on the DFS
	// path, then flip the postorder numbers into reverse postorder.
	n := postorder(f.Entry(), 0)
	for _, b := range f.Blocks {
		if b.RPO >= 0 {
			b.RPO = n - 1 - b.RPO
		}
	}
}

// postorder numbers the blocks reachable from b that are still unvisited
// (RPO -1) in depth-first postorder, starting at next, and returns the
// next unused number.
func postorder(b *Block, next int) int {
	b.RPO = -2
	for _, s := range b.Succs {
		if s.RPO == -1 {
			next = postorder(s, next)
		}
	}
	b.RPO = next
	return next + 1
}

// RPOBlocks returns reachable blocks in reverse postorder.
func (f *Func) RPOBlocks() []*Block {
	n := 0
	for _, b := range f.Blocks {
		if b.RPO >= 0 {
			n++
		}
	}
	// Reachable blocks hold exactly the numbers 0..n-1.
	out := make([]*Block, n)
	for _, b := range f.Blocks {
		if b.RPO >= 0 {
			out[b.RPO] = b
		}
	}
	return out
}

// ComputeDominators fills Block.IDom using the Cooper-Harvey-Kennedy
// iterative algorithm over reverse postorder. Must follow BuildCFG.
func (f *Func) ComputeDominators() {
	blocks := f.RPOBlocks()
	if len(blocks) == 0 {
		return
	}
	for _, b := range f.Blocks {
		b.IDom = nil
	}
	entry := blocks[0]
	entry.IDom = entry
	changed := true
	for changed {
		changed = false
		for _, b := range blocks[1:] {
			var newIDom *Block
			for _, p := range b.Preds {
				if p.RPO < 0 || p.IDom == nil {
					continue
				}
				if newIDom == nil {
					newIDom = p
				} else {
					newIDom = intersect(p, newIDom)
				}
			}
			if newIDom != nil && b.IDom != newIDom {
				b.IDom = newIDom
				changed = true
			}
		}
	}
	entry.IDom = nil // conventional: entry has no idom
	f.numberDomTree(blocks)
}

// numberDomTree numbers the dominator tree over the reachable blocks rpo
// (entry first) in depth-first entry/exit order, from 1, so Dominates
// answers with two compares; every other block keeps 0. The walk threads
// through first-child/next-sibling links and climbs by IDom, so it needs
// no stack however deep the tree (a chain of ifs makes it as deep as the
// function is long).
func (f *Func) numberDomTree(rpo []*Block) {
	for _, b := range f.Blocks {
		b.domIn, b.domOut, b.domChild, b.domNext = 0, 0, nil, nil
	}
	for _, b := range rpo[1:] {
		b.domNext = b.IDom.domChild
		b.IDom.domChild = b
	}
	n := int32(0)
	for b := rpo[0]; ; {
		n++
		b.domIn = n
		if b.domChild != nil {
			b = b.domChild
			continue
		}
		for {
			n++
			b.domOut = n
			if b.domNext != nil {
				b = b.domNext
				break
			}
			if b = b.IDom; b == nil {
				return
			}
		}
	}
}

func intersect(a, b *Block) *Block {
	for a != b {
		for a.RPO > b.RPO {
			if a.IDom == nil {
				return b
			}
			a = a.IDom
		}
		for b.RPO > a.RPO {
			if b.IDom == nil {
				return a
			}
			b = b.IDom
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexive): b lies in a's
// subtree, whose entry/exit numbers enclose b's. A block the entry does
// not reach dominates only itself.
func Dominates(a, b *Block) bool {
	return a == b || a.domIn > 0 && a.domIn <= b.domIn && b.domOut <= a.domOut
}

// FindLoops identifies natural loops from back edges (tail -> header where
// header dominates tail), merges loops sharing a header, computes nesting,
// sets per-block Depth/Freq/InLoop, and records whether each loop contains
// a call. Requires BuildCFG + ComputeDominators.
func (f *Func) FindLoops() {
	f.Loops = nil
	for _, b := range f.Blocks {
		b.Depth = 0
		b.InLoop = nil
	}
	byHeader := make([]*Loop, len(f.Blocks)) // indexed by Block.Index
	var stack []*Block
	for _, b := range f.Blocks {
		if b.RPO < 0 {
			continue
		}
		for _, s := range b.Succs {
			if !Dominates(s, b) {
				continue
			}
			// back edge b -> s
			l := byHeader[s.Index]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
				byHeader[s.Index] = l
				f.Loops = append(f.Loops, l)
			}
			// Walk predecessors backward from the tail.
			stack = append(stack[:0], b)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[x] {
					continue
				}
				l.Blocks[x] = true
				for _, p := range x.Preds {
					stack = append(stack, p)
				}
			}
		}
	}
	// Sort loops by size descending so parents precede children.
	// Headers are distinct, so the order is total.
	slices.SortFunc(f.Loops, func(a, b *Loop) int {
		if len(a.Blocks) != len(b.Blocks) {
			return cmp.Compare(len(b.Blocks), len(a.Blocks))
		}
		return cmp.Compare(a.Header.Index, b.Header.Index)
	})
	// Nesting: a loop's parent is the smallest strictly-containing loop.
	// Loops are sorted by size descending, so scanning backward from i-1
	// finds the smallest containing loop first.
	for i, l := range f.Loops {
		for j := i - 1; j >= 0; j-- {
			outer := f.Loops[j]
			if outer != l && outer.Blocks[l.Header] && len(outer.Blocks) > len(l.Blocks) {
				l.Parent = outer
				break
			}
		}
	}
	for _, l := range f.Loops {
		l.Depth = 1
		for p := l.Parent; p != nil; p = p.Parent {
			l.Depth++
		}
	}
	// Innermost loop and depth per block.
	for _, l := range f.Loops {
		for b := range l.Blocks {
			if b.InLoop == nil || l.Depth > b.InLoop.Depth {
				b.InLoop = l
				b.Depth = l.Depth
			}
		}
	}
	for _, b := range f.Blocks {
		d := b.Depth
		if d > 6 {
			d = 6
		}
		b.Freq = pow10(d)
	}
	// Calls and preheaders.
	for _, l := range f.Loops {
		for b := range l.Blocks {
			for i := range b.Ins {
				if b.Ins[i].Kind == OpCall {
					l.HasCall = true
				}
			}
		}
		l.Preheader = f.findPreheader(l)
	}
}

func pow10(n int) int64 {
	v := int64(1)
	for i := 0; i < n; i++ {
		v *= 10
	}
	return v
}

// findPreheader returns the unique out-of-loop predecessor of the header
// whose only successor is the header, or nil if none exists.
func (f *Func) findPreheader(l *Loop) *Block {
	var outside *Block
	for _, p := range l.Header.Preds {
		if !l.Blocks[p] {
			if outside != nil {
				return nil
			}
			outside = p
		}
	}
	if outside != nil && len(outside.Succs) == 1 {
		return outside
	}
	return nil
}

// EnsurePreheaders inserts an explicit preheader block before every loop
// header that lacks one, retargeting out-of-loop predecessors. Rebuilds the
// CFG and loop analysis when any block was inserted.
func (f *Func) EnsurePreheaders() error {
	inserted := false
	for _, l := range f.Loops {
		if l.Preheader != nil {
			continue
		}
		ph := &Block{Label: f.freshLabel(l.Header.Label + ".ph")}
		ph.Ins = append(ph.Ins, Ins{Kind: OpJump, Targets: []string{l.Header.Label}})
		// Retarget out-of-loop predecessors.
		for _, p := range l.Header.Preds {
			if l.Blocks[p] {
				continue
			}
			t := p.Term()
			retarget(t, l.Header.Label, ph.Label)
		}
		// Insert before the header to keep layout natural.
		pos := l.Header.Index
		f.Blocks = append(f.Blocks, nil)
		copy(f.Blocks[pos+1:], f.Blocks[pos:])
		f.Blocks[pos] = ph
		inserted = true
		if err := f.BuildCFG(); err != nil {
			return err
		}
		f.ComputeDominators()
		f.FindLoops()
		return f.EnsurePreheaders() // loop list invalidated; restart
	}
	if inserted {
		if err := f.BuildCFG(); err != nil {
			return err
		}
		f.ComputeDominators()
		f.FindLoops()
	}
	return nil
}

func retarget(t *Ins, from, to string) {
	for i, l := range t.Targets {
		if l == from {
			t.Targets[i] = to
		}
	}
	for i := range t.Cases {
		if t.Cases[i].Target == from {
			t.Cases[i].Target = to
		}
	}
}

func (f *Func) freshLabel(base string) string {
	if f.BlockByLabel(base) == nil {
		return base
	}
	for i := 1; ; i++ {
		l := fmt.Sprintf("%s%d", base, i)
		if f.BlockByLabel(l) == nil {
			return l
		}
	}
}

// Analyze runs the full analysis pipeline: CFG, dominators, loops, and
// preheader insertion.
func (f *Func) Analyze() error {
	if err := f.BuildCFG(); err != nil {
		return err
	}
	f.ComputeDominators()
	f.FindLoops()
	return f.EnsurePreheaders()
}
