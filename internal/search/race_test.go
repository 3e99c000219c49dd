//go:build race

package search

// raceEnabled reports a -race build. Under it sync.Pool drops a share of its
// Puts at random, so pooled scan scratch is re-allocated by chance.
const raceEnabled = true
