//go:build !linux

package driver

import "branchreg/internal/isa"

func newImage() []byte { return make([]byte, isa.MemBytes) }

func resetImage(b []byte) { clear(b) }

// freeImage leaves the image to the collector.
func freeImage([]byte) {}
