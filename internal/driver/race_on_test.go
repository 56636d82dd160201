//go:build race

package driver

// raceEnabled: see race_off_test.go.
const raceEnabled = true
