// Package diversify implements the tuple diversification layer of the
// reproduction: the paper's DUST algorithm (prune -> cluster -> re-rank,
// Algorithm 2, §5) and the two evaluation metrics of §5.4 (Average
// Diversity and Min Diversity). The baselines DUST is evaluated against
// live in internal/experiments/baselines.
package diversify

import "dust/internal/vector"

// Problem is one diversification instance: embedded query tuples, embedded
// candidate data lake tuples, the number of outputs k, and the tuple
// distance function (cosine distance throughout the paper's experiments).
type Problem struct {
	Query  []vector.Vec
	Tuples []vector.Vec
	// Groups optionally assigns each tuple a provenance group (its source
	// table); DUST's pruning ranks tuples against their group's mean
	// embedding (§5.1). When nil, all tuples form one group.
	Groups []int
	K      int
	Dist   vector.DistanceFunc
	// Workers bounds the parallelism of the distance kernels (pruning,
	// clustering matrices, re-ranking). <= 0 selects the GOMAXPROCS default,
	// 1 forces the sequential path; the selection is identical either way.
	Workers int
}

// Normalized returns the problem with defaults filled in: cosine distance
// when Dist is nil, and K clamped to [0, len(Tuples)].
func (p Problem) Normalized() Problem {
	if p.Dist == nil {
		p.Dist = vector.CosineDistance
	}
	if p.K > len(p.Tuples) {
		p.K = len(p.Tuples)
	}
	if p.K < 0 {
		p.K = 0
	}
	return p
}
