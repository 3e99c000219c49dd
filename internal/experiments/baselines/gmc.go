package baselines

import (
	"container/heap"
	"math/rand"
	"sort"

	"dust/internal/diversify"
)

// GMC is the Greedy Marginal Contribution algorithm of Vieira et al.
// (DivDB, §6.4.2): items are added one at a time, each time picking the
// candidate with the maximum marginal contribution to the MMR objective
//
//	F(R) = (1-λ)·Σ rel(t) + λ/(k-1)·Σ_{t,u ∈ R} d(t,u)
//
// where the contribution of an unselected candidate counts its distances to
// the current result set plus its top-(k-|R|-1) distances to other
// candidates (the optimistic future term that makes GMC quadratic in the
// candidate count — the scaling Fig. 7(a) shows).
type GMC struct {
	// Lambda is the diversity weight in [0,1]; Vieira et al. emphasise the
	// diversity end for diversification workloads.
	Lambda float64
}

// NewGMC returns GMC with the standard MMR trade-off (λ = 0.5, the DivDB
// default balance of relevance and diversity).
func NewGMC() *GMC { return &GMC{Lambda: 0.5} }

// Name implements Algorithm.
func (g *GMC) Name() string { return "gmc" }

// Select implements Algorithm.
func (g *GMC) Select(p diversify.Problem) []int {
	p = p.Normalized()
	n := len(p.Tuples)
	if p.K == 0 || n == 0 {
		return nil
	}
	if p.K >= n {
		return allIndices(n)
	}
	rel := relevanceScores(p)
	prefix := topKDistancePrefixSums(p, p.K)

	lambda := g.Lambda
	selected := make([]int, 0, p.K)
	inSel := make([]bool, n)
	selDist := make([]float64, n) // Σ d(t, s) over selected s

	denom := float64(p.K - 1)
	if denom <= 0 {
		denom = 1
	}
	for len(selected) < p.K {
		future := p.K - len(selected) - 1
		best, bestScore := -1, 0.0
		for t := 0; t < n; t++ {
			if inSel[t] {
				continue
			}
			fut := 0.0
			if future > 0 && future <= len(prefix[t]) {
				fut = prefix[t][future-1]
			}
			score := (1-lambda)*rel[t] + lambda/denom*(selDist[t]+fut)
			if best == -1 || score > bestScore {
				best, bestScore = t, score
			}
		}
		inSel[best] = true
		selected = append(selected, best)
		for t := 0; t < n; t++ {
			if !inSel[t] {
				selDist[t] += p.Dist(p.Tuples[t], p.Tuples[best])
			}
		}
	}
	sort.Ints(selected)
	return selected
}

// topKDistancePrefixSums computes, for every tuple, the prefix sums of its
// k largest distances to other tuples. This is the O(n^2) step.
func topKDistancePrefixSums(p diversify.Problem, k int) [][]float64 {
	n := len(p.Tuples)
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		h := &minFloatHeap{}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := p.Dist(p.Tuples[i], p.Tuples[j])
			if h.Len() < k {
				heap.Push(h, d)
			} else if d > (*h)[0] {
				(*h)[0] = d
				heap.Fix(h, 0)
			}
		}
		ds := make([]float64, h.Len())
		copy(ds, *h)
		sort.Sort(sort.Reverse(sort.Float64Slice(ds)))
		for j := 1; j < len(ds); j++ {
			ds[j] += ds[j-1]
		}
		out[i] = ds
	}
	return out
}

type minFloatHeap []float64

func (h minFloatHeap) Len() int            { return len(h) }
func (h minFloatHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h minFloatHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minFloatHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *minFloatHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// GNE is Vieira et al.'s Greedy randomized with Neighborhood Expansion: a
// GRASP loop that builds a randomized greedy solution and then hill-climbs
// by swapping selected items with outside candidates. It explores far more
// of the search space than GMC and is correspondingly slower (the paper
// could only run it on UGEN-V1, where it took 81 s vs <1 s for the rest).
type GNE struct {
	Lambda     float64
	Iterations int // GRASP restarts
	RCLSize    int // randomized candidate list size
	Seed       int64
}

// MaxPasses bounds the local-search sweeps per GRASP restart; the original
// GNE explores a limited neighbourhood per iteration.
const gneMaxPasses = 2

// NewGNE returns GNE with the randomized-candidate-list defaults of the
// original (a wide RCL trades solution quality for exploration — GNE is
// outperformed by all baselines on UGEN-V1 in the paper's Table 2 while
// also being the slowest).
func NewGNE() *GNE { return &GNE{Lambda: 0.5, Iterations: 5, RCLSize: 10, Seed: 1} }

// Name implements Algorithm.
func (g *GNE) Name() string { return "gne" }

// Select implements Algorithm.
func (g *GNE) Select(p diversify.Problem) []int {
	p = p.Normalized()
	n := len(p.Tuples)
	if p.K == 0 || n == 0 {
		return nil
	}
	if p.K >= n {
		return allIndices(n)
	}
	rel := relevanceScores(p)
	rng := rand.New(rand.NewSource(g.Seed))

	objective := func(sel []int) float64 {
		var relSum, divSum float64
		for _, t := range sel {
			relSum += rel[t]
		}
		for i := 0; i < len(sel); i++ {
			for j := i + 1; j < len(sel); j++ {
				divSum += p.Dist(p.Tuples[sel[i]], p.Tuples[sel[j]])
			}
		}
		denom := float64(p.K - 1)
		if denom <= 0 {
			denom = 1
		}
		return (1-g.Lambda)*relSum + g.Lambda/denom*2*divSum
	}

	var bestSel []int
	bestScore := 0.0
	for it := 0; it < g.Iterations; it++ {
		sel := g.construct(p, rel, rng)
		score := objective(sel)
		// Local search: first-improvement swaps, bounded passes.
		improved := true
		for pass := 0; improved && pass < gneMaxPasses; pass++ {
			improved = false
			for si := 0; si < len(sel) && !improved; si++ {
				for t := 0; t < n && !improved; t++ {
					if contains(sel, t) {
						continue
					}
					old := sel[si]
					sel[si] = t
					if ns := objective(sel); ns > score {
						score = ns
						improved = true
					} else {
						sel[si] = old
					}
				}
			}
		}
		if bestSel == nil || score > bestScore {
			bestScore = score
			bestSel = append([]int(nil), sel...)
		}
	}
	sort.Ints(bestSel)
	return bestSel
}

// construct builds a randomized greedy solution: at each step one of the
// RCLSize best candidates (by GMC-style marginal contribution without the
// future term) is chosen at random.
func (g *GNE) construct(p diversify.Problem, rel []float64, rng *rand.Rand) []int {
	n := len(p.Tuples)
	sel := make([]int, 0, p.K)
	inSel := make([]bool, n)
	selDist := make([]float64, n)
	denom := float64(p.K - 1)
	if denom <= 0 {
		denom = 1
	}
	type cand struct {
		idx   int
		score float64
	}
	for len(sel) < p.K {
		cands := make([]cand, 0, n)
		for t := 0; t < n; t++ {
			if inSel[t] {
				continue
			}
			cands = append(cands, cand{t, (1-g.Lambda)*rel[t] + g.Lambda/denom*selDist[t]})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].score != cands[b].score {
				return cands[a].score > cands[b].score
			}
			return cands[a].idx < cands[b].idx
		})
		rcl := g.RCLSize
		if rcl > len(cands) {
			rcl = len(cands)
		}
		chosen := cands[rng.Intn(rcl)].idx
		inSel[chosen] = true
		sel = append(sel, chosen)
		for t := 0; t < n; t++ {
			if !inSel[t] {
				selDist[t] += p.Dist(p.Tuples[t], p.Tuples[chosen])
			}
		}
	}
	return sel
}
