package driver

import (
	"syscall"

	"branchreg/internal/isa"
)

// newImage maps a fresh zero-filled image. Huge pages are refused for
// it: where transparent huge pages are "always" on, the first touch of
// the image would otherwise fault in and zero 2 MiB, and a run touches
// only a few small pages.
func newImage() []byte {
	b, err := syscall.Mmap(-1, 0, isa.MemBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]byte, isa.MemBytes)
	}
	// A refusal leaves the image usable; it only costs the huge-page
	// zeroing this advice avoids.
	_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE)
	return b
}

// resetImage drops the pages a run touched; they read as zeros again.
// MADV_FREE would not do: its pages may keep their old contents.
func resetImage(b []byte) {
	if syscall.Madvise(b, syscall.MADV_DONTNEED) != nil {
		clear(b)
	}
}

// freeImage unmaps an image. An image newImage had to take from the
// heap is not a mapping; Munmap refuses it and the collector frees it.
func freeImage(b []byte) { _ = syscall.Munmap(b) }
