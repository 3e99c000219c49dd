package diversify

// Fixtures shared with the external tests of baselines_test.go, which run
// the diversifiers of internal/experiments/baselines — a package that
// imports this one — beside DUST.
var (
	ClusteredProblem = clusteredProblem
	RandomProblem    = randomProblem
)
