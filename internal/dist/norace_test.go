//go:build !race

package dist

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
