//go:build !race

package driver

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on its own; allocation
// ceilings skip under it.
const raceEnabled = false
