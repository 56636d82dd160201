package emu

import (
	"encoding/json"
	"fmt"

	"branchreg/internal/isa"
)

// TrapKind classifies a machine fault. The taxonomy is part of the
// experiment engine's JSON schema (kinds marshal as their String form),
// so renaming a kind is a schema change.
type TrapKind int

const (
	// TrapNone is the zero value; a real Trap never carries it.
	TrapNone TrapKind = iota
	// TrapOOBLoad is a data-memory read outside [0, MemBytes).
	TrapOOBLoad
	// TrapOOBStore is a data-memory write outside [0, MemBytes).
	TrapOOBStore
	// TrapMisaligned is a word or float access whose address is not a
	// multiple of the access size's alignment (4 bytes).
	TrapMisaligned
	// TrapPCOutOfRange is a transfer of control (or sequential fall-off)
	// landing outside the text segment.
	TrapPCOutOfRange
	// TrapStepBudget is the instruction limit expiring; Limit and
	// Executed report the configured budget and the work done.
	TrapStepBudget
	// TrapIllegalInstr is an opcode the executing machine does not
	// implement, or an unknown system-trap code.
	TrapIllegalInstr
	// TrapUninitBranchReg is a transfer through a branch register that
	// no instruction ever assigned.
	TrapUninitBranchReg
	// TrapArithmetic is integer division or modulo by zero.
	TrapArithmetic
	// TrapInjected is a fault forced by a FaultPlan (never produced by
	// real workloads).
	TrapInjected

	numTrapKinds
)

var trapKindNames = [...]string{
	TrapNone:            "none",
	TrapOOBLoad:         "oob-load",
	TrapOOBStore:        "oob-store",
	TrapMisaligned:      "misaligned",
	TrapPCOutOfRange:    "pc-out-of-range",
	TrapStepBudget:      "step-budget",
	TrapIllegalInstr:    "illegal-instruction",
	TrapUninitBranchReg: "uninit-branch-reg",
	TrapArithmetic:      "arithmetic",
	TrapInjected:        "injected",
}

// String returns the kind's stable kebab-case name.
func (k TrapKind) String() string {
	if k >= 0 && int(k) < len(trapKindNames) {
		return trapKindNames[k]
	}
	return fmt.Sprintf("trap-kind-%d", int(k))
}

// ParseTrapKind is the inverse of String.
func ParseTrapKind(s string) (TrapKind, bool) {
	for k, name := range trapKindNames {
		if name == s {
			return TrapKind(k), true
		}
	}
	return TrapNone, false
}

// TrapKinds returns every real kind (excluding TrapNone), for
// taxonomy-exhaustive tests.
func TrapKinds() []TrapKind {
	out := make([]TrapKind, 0, numTrapKinds-1)
	for k := TrapNone + 1; k < numTrapKinds; k++ {
		out = append(out, k)
	}
	return out
}

// MarshalJSON encodes the kind as its String name.
func (k TrapKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a String name back to the kind.
func (k *TrapKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kind, ok := ParseTrapKind(s)
	if !ok {
		return fmt.Errorf("emu: unknown trap kind %q", s)
	}
	*k = kind
	return nil
}

// Trap is a machine fault with the context needed to diagnose it from a
// JSON report: what went wrong, where (byte address and enclosing
// function), and any kind-specific detail. It wraps cleanly through
// driver.Run and is classifiable with errors.As.
type Trap struct {
	Kind  TrapKind `json:"kind"`
	PC    int32    `json:"pc"`              // byte address of the faulting instruction
	Fn    string   `json:"fn"`              // enclosing function ("?" if unknown)
	Instr string   `json:"instr,omitempty"` // RTL of the faulting instruction
	// Detail is the kind-specific free text (the out-of-range address,
	// the unimplemented opcode, ...).
	Detail string `json:"detail,omitempty"`
	// Limit and Executed are set for TrapStepBudget: the configured
	// instruction budget and the count actually executed.
	Limit    int64 `json:"limit,omitempty"`
	Executed int64 `json:"executed,omitempty"`
}

// Error implements error.
func (t *Trap) Error() string {
	msg := fmt.Sprintf("emu: %s trap in %s@%#x", t.Kind, t.Fn, uint32(t.PC))
	if t.Detail != "" {
		msg += ": " + t.Detail
	}
	if t.Kind == TrapStepBudget {
		msg += fmt.Sprintf(" (limit %d, executed %d)", t.Limit, t.Executed)
	}
	return msg
}

// trapHere builds a Trap at the machine's current instruction.
func (m *Machine) trapHere(kind TrapKind, format string, args ...interface{}) *Trap {
	t := &Trap{
		Kind:   kind,
		PC:     isa.IndexToAddr(m.pc),
		Fn:     m.where(),
		Detail: fmt.Sprintf(format, args...),
	}
	if m.pc >= 0 && m.pc < len(m.P.Text) {
		in := m.P.Text[m.pc].Instr()
		t.Instr = in.RTL(m.P.Kind)
	}
	return t
}
