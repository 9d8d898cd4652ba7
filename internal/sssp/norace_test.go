//go:build !race

package sssp

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
