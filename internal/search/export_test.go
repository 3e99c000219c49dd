package search

// Fixtures shared with the external tests of baselines_test.go, which rank
// with internal/experiments/baselines — a package that imports this one.
var (
	TestLake = testBench
	SameHits = assertSameHits
)
