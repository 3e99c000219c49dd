//go:build !race

package cluster

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
