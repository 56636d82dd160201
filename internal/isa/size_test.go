package isa

import (
	"reflect"
	"strconv"
	"testing"
	"unsafe"
)

// TestInstrSize pins the assembler's instruction record's size.
// Functions hold their instructions by value, so a field that widens or
// pads the record must show up here. Change the pin only together with a
// measurement.
func TestInstrSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Instr{}); got != 96 {
		t.Errorf("isa.Instr is %d bytes, pinned at 96", got)
	}
}

// TestInstSize pins the linked instruction record's size: every cached
// program holds one per instruction, so the record is what a program
// costs the cache.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 12 {
		t.Errorf("isa.Inst is %d bytes, pinned at 12", got)
	}
}

// TestLinkedTextHoldsNoPointers walks the linked text's element type:
// a pointer, string, slice, map, interface, channel or function in it
// would make the collector scan every cached program's text again.
func TestLinkedTextHoldsNoPointers(t *testing.T) {
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: the linked text must hold no pointers", path, ty.Kind())
		}
	}
	text, ok := reflect.TypeOf(Program{}).FieldByName("Text")
	if !ok || text.Type.Kind() != reflect.Slice {
		t.Fatal("Program.Text is not a slice")
	}
	walk(text.Type.Elem(), text.Type.Elem().Name())
}
