package ir

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestInsSize pins the instruction record's size. Blocks hold their
// instructions by value and the compile path's bytes follow this size,
// so a field that widens or pads the record must show up here. Change
// the pin only together with a measurement.
func TestInsSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Ins{}); got != 144 {
		t.Errorf("ir.Ins is %d bytes, pinned at 144", got)
	}
}
