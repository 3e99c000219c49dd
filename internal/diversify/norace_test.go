//go:build !race

package diversify

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
