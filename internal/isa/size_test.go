package isa

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestInstrSize pins the machine-instruction record's size. Functions
// and linked programs hold their instructions by value, so a field that
// widens or pads the record must show up here. Change the pin only
// together with a measurement.
func TestInstrSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Instr{}); got != 96 {
		t.Errorf("isa.Instr is %d bytes, pinned at 96", got)
	}
}
