package mc

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestTokenSize pins the token record's size. Every token is copied
// from the lexer through the parser's window, so a field that widens or
// pads the record must show up here. Change the pin only together with a
// measurement.
func TestTokenSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Token{}); got != 64 {
		t.Errorf("mc.Token is %d bytes, pinned at 64", got)
	}
}
