// Package baselines holds the evaluation objects of the paper's §6 that
// the serving path never runs: the tuple diversifiers DUST is compared
// with — GMC and GNE (Vieira et al., MMR-based max-sum diversification),
// CLT (cluster medoids), SWAP, a Max-Min greedy, random selection and the
// top-similar ranking of Example 1 — and the union-search baselines, a
// D3L-like table ranker and the tuple-level adaptation of Starmie used in
// Table 3, with the MAP metric (§6.5.2). The experiments, examples and
// tests import them from here; the serving tree links none of it.
package baselines

import (
	"math/rand"
	"sort"

	"dust/internal/diversify"
	"dust/internal/par"
)

// Algorithm selects k diverse tuple indices for a problem. *diversify.DUST
// implements it, so the experiments compare DUST and the baselines through
// one type.
type Algorithm interface {
	Name() string
	Select(p diversify.Problem) []int
}

// CLT is the clustering baseline (van Leuken et al., §6.4.2): cluster the
// tuples into exactly k clusters and return each cluster's medoid. It uses
// the same clustering machinery and parameters as DUST for a controlled
// comparison (as in the paper), but has no query-aware re-ranking step —
// the gap between CLT and DUST isolates the value of re-ranking. It is
// therefore DUST with one candidate per output (P = 1) and no pruning,
// whose re-ranking only orders the k medoids; CLT returns them by index.
type CLT struct{}

// Name implements Algorithm.
func (CLT) Name() string { return "clt" }

// Select implements Algorithm.
func (CLT) Select(p diversify.Problem) []int {
	idx := (&diversify.DUST{P: 1, DisablePrune: true}).Select(p)
	sort.Ints(idx)
	return idx
}

// MaxMin is the classic greedy 2-approximation for max-min diversification
// (Moumoulidou et al., §3.1): start from the tuple most novel w.r.t. the
// query, then repeatedly add the tuple maximizing the minimum distance to
// the already-selected set.
type MaxMin struct{}

// Name implements Algorithm.
func (MaxMin) Name() string { return "maxmin" }

// Select implements Algorithm.
func (MaxMin) Select(p diversify.Problem) []int {
	p = p.Normalized()
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
func (Swap) Select(p diversify.Problem) []int {
	p = p.Normalized()
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
func (r Random) Select(p diversify.Problem) []int {
	p = p.Normalized()
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
func (TopTuples) Select(p diversify.Problem) []int {
	p = p.Normalized()
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

// noveltyScores computes each tuple's novelty: its minimum distance to any
// query tuple — the quantity DUST re-ranks by (§5.3). Tuples are scored in
// parallel; each tuple's query scan stays sequential, so scores are
// bit-identical for every worker count.
func noveltyScores(p diversify.Problem) []float64 {
	return par.Map(p.Workers, len(p.Tuples), func(i int) float64 {
		minD := 0.0
		for qi, q := range p.Query {
			d := p.Dist(p.Tuples[i], q)
			if qi == 0 || d < minD {
				minD = d
			}
		}
		return minD
	})
}

// relevanceScores computes IR-style relevance: similarity to the query
// (1 - minDist/2, mapping cosine distance in [0,2] to [0,1]). The MMR
// baselines (GMC, GNE, SWAP) trade THIS off against diversity — relevance
// and diversity are "opposite dimensions" in that literature (§4), which is
// exactly why they lose ground to DUST on novelty-driven discovery.
func relevanceScores(p diversify.Problem) []float64 {
	out := noveltyScores(p)
	for i, d := range out {
		s := 1 - d/2
		if s < 0 {
			s = 0
		}
		out[i] = s
	}
	return out
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
