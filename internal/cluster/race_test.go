//go:build race

package cluster

// raceEnabled reports a -race build. Under it every region is a heap
// slice, so a count of heap allocations may include one.
const raceEnabled = true
