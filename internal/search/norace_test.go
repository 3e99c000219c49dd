//go:build !race

package search

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
