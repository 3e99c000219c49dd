package cluster

// Test helpers for the external test package, which can reach the alignment
// universes this package cannot import.
var (
	CheckBestCut   = checkBestCut
	DuplicatedVecs = duplicatedVecs
)
