package diversify

import (
	"math/rand"
	"sort"

	"dust/internal/cluster"
	"dust/internal/vector"
)

// CLT is the clustering baseline (van Leuken et al., §6.4.2): cluster the
// tuples into exactly k clusters and return each cluster's medoid. It uses
// the same clustering machinery and parameters as DUST for a controlled
// comparison (as in the paper), but has no query-aware re-ranking step —
// the gap between CLT and DUST isolates the value of re-ranking.
type CLT struct{}

// Name implements Algorithm.
func (CLT) Name() string { return "clt" }

// Select implements Algorithm.
func (CLT) Select(p Problem) []int {
	p = p.normalized()
	if p.K == 0 || len(p.Tuples) == 0 {
		return nil
	}
	return clusterReps(p, allIndices(len(p.Tuples)), p.K, medoidOf(p.Workers))
}

// MaxMin is the classic greedy 2-approximation for max-min diversification
// (Moumoulidou et al., §3.1): start from the tuple most novel w.r.t. the
// query, then repeatedly add the tuple maximizing the minimum distance to
// the already-selected set.
type MaxMin struct{}

// Name implements Algorithm.
func (MaxMin) Name() string { return "maxmin" }

// Select implements Algorithm.
func (MaxMin) Select(p Problem) []int {
	p = p.normalized()
	n := len(p.Tuples)
	if p.K == 0 || n == 0 {
		return nil
	}
	nov := noveltyScores(p)
	first := 0
	for t := 1; t < n; t++ {
		if nov[t] > nov[first] {
			first = t
		}
	}
	selected := []int{first}
	minDist := make([]float64, n)
	for t := 0; t < n; t++ {
		minDist[t] = p.Dist(p.Tuples[t], p.Tuples[first])
	}
	for len(selected) < p.K {
		best := -1
		for t := 0; t < n; t++ {
			if minDist[t] == 0 && contains(selected, t) {
				continue
			}
			if best == -1 || minDist[t] > minDist[best] {
				best = t
			}
		}
		selected = append(selected, best)
		for t := 0; t < n; t++ {
			if d := p.Dist(p.Tuples[t], p.Tuples[best]); d < minDist[t] {
				minDist[t] = d
			}
		}
	}
	sort.Ints(selected)
	return selected
}

// Swap is Yu et al.'s SWAP algorithm (§2): seed the result with the k most
// RELEVANT tuples (most similar to the query, the recommender-system
// reading of relevance), then greedily swap in outside candidates whenever
// replacing a result item improves the max-sum diversity of the set.
type Swap struct{}

// Name implements Algorithm.
func (Swap) Name() string { return "swap" }

// Select implements Algorithm.
func (Swap) Select(p Problem) []int {
	p = p.normalized()
	n := len(p.Tuples)
	if p.K == 0 || n == 0 {
		return nil
	}
	if p.K >= n {
		return allIndices(n)
	}
	rel := relevanceScores(p)
	order := allIndices(n)
	sort.SliceStable(order, func(a, b int) bool { return rel[order[a]] > rel[order[b]] })

	sel := append([]int(nil), order[:p.K]...)
	sumDiv := func(sel []int) float64 {
		var s float64
		for i := 0; i < len(sel); i++ {
			for j := i + 1; j < len(sel); j++ {
				s += p.Dist(p.Tuples[sel[i]], p.Tuples[sel[j]])
			}
		}
		return s
	}
	cur := sumDiv(sel)
	for _, cand := range order[p.K:] {
		// Find the selected item whose removal hurts least when cand
		// enters (the most redundant member).
		bestScore, bestIdx := cur, -1
		for si := range sel {
			old := sel[si]
			sel[si] = cand
			if s := sumDiv(sel); s > bestScore {
				bestScore, bestIdx = s, si
			}
			sel[si] = old
		}
		if bestIdx >= 0 {
			sel[bestIdx] = cand
			cur = bestScore
		}
	}
	sort.Ints(sel)
	return sel
}

// Random selects k tuples uniformly at random; the experiments run it with
// several seeds and keep the best score per metric (§6.4.3).
type Random struct {
	Seed int64
}

// Name implements Algorithm.
func (r Random) Name() string { return "random" }

// Select implements Algorithm.
func (r Random) Select(p Problem) []int {
	p = p.normalized()
	n := len(p.Tuples)
	if p.K == 0 || n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(r.Seed))
	perm := rng.Perm(n)[:p.K]
	sort.Ints(perm)
	return perm
}

// TopTuples is not a diversifier: it returns the k tuples most SIMILAR to
// the query (lowest min distance), modelling what a pure union-search
// ranking yields (Example 1's "most unionable" Table (e)). Experiments use
// it to show the redundancy of similarity-based retrieval.
type TopTuples struct{}

// Name implements Algorithm.
func (TopTuples) Name() string { return "top-similar" }

// Select implements Algorithm.
func (TopTuples) Select(p Problem) []int {
	p = p.normalized()
	n := len(p.Tuples)
	if p.K == 0 || n == 0 {
		return nil
	}
	nov := noveltyScores(p)
	order := allIndices(n)
	sort.SliceStable(order, func(a, b int) bool { return nov[order[a]] < nov[order[b]] })
	out := append([]int(nil), order[:p.K]...)
	sort.Ints(out)
	return out
}

// Medoid exposes cluster medoid selection over raw vectors for reuse.
func Medoid(vs []vector.Vec, dist vector.DistanceFunc) int {
	if len(vs) == 0 {
		return -1
	}
	m := cluster.NewMatrix(vs, dist)
	return m.Medoid(allIndices(len(vs)))
}
