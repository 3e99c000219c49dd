package diversify

import (
	"math/rand"
	"sort"

	"dust/internal/cluster"
	"dust/internal/par"
	"dust/internal/vector"
)

// DUST is the paper's tuple diversification algorithm (Algorithm 2):
//
//  1. Prune the unionable tuples to the S candidates farthest from their
//     source table's mean embedding (§5.1).
//  2. Cluster the survivors into K*P clusters and keep each cluster's
//     medoid as a candidate diverse among themselves (§5.2).
//  3. Re-rank candidates by minimum distance to the query tuples (ties
//     broken by average distance) and return the top K (§5.3).
type DUST struct {
	// P controls the candidate multiplier (number of clusters = K*P). The
	// paper selects P = 2 (Appendix A.2.2).
	P int
	// S caps the number of tuples entering clustering (§5.1; the paper
	// prunes 10k tuples to 2500).
	S int
	// DisablePrune turns off step 1 for the Appendix A.2.3 ablation.
	DisablePrune bool
	// RandomRep replaces the per-cluster medoid with a seeded random
	// member — the DESIGN.md ablation isolating the medoid choice (§5.2
	// argues medoids are robust to outliers).
	RandomRep bool
	// RepSeed seeds the random representative choice.
	RepSeed int64
}

// NewDUST returns DUST with the paper's defaults (P=2, S=2500).
func NewDUST() *DUST { return &DUST{P: 2, S: 2500} }

// Name identifies DUST in config tags and experiment output.
func (d *DUST) Name() string { return "dust" }

// Select returns the indices of p.K diverse tuples in re-ranked order.
func (d *DUST) Select(p Problem) []int {
	p = p.Normalized()
	if p.K == 0 || len(p.Tuples) == 0 {
		return nil
	}
	pp := d.P
	if pp < 1 {
		pp = 2
	}
	s := d.S
	if s <= 0 {
		s = 2500
	}

	// Step 1: prune (identity mapping when disabled or small).
	kept := allIndices(len(p.Tuples))
	if !d.DisablePrune && len(p.Tuples) > s {
		kept = Prune(p, s)
	}

	// Step 2: cluster survivors into K*P clusters; one representative per
	// cluster (medoid by default) becomes a candidate.
	pick := medoidOf(p.Workers)
	if d.RandomRep {
		rng := rand.New(rand.NewSource(d.RepSeed))
		pick = func(_ *cluster.Matrix, members []int) int { return members[rng.Intn(len(members))] }
	}
	candidates := clusterReps(p, kept, p.K*pp, pick)

	// Step 3: re-rank by min distance to query, tie-break by avg distance.
	ranked := rerankByQueryDistance(p, candidates)
	if len(ranked) > p.K {
		ranked = ranked[:p.K]
	}
	return ranked
}

// Prune returns the indices of the s tuples with the greatest distance to
// their source-table mean embedding (§5.1), preserving a deterministic
// order on ties. The per-tuple distance scoring — the pruning stage's hot
// loop — runs in parallel across p.Workers; scores are written by tuple
// index, so the ranking is identical for every worker count.
func Prune(p Problem, s int) []int {
	n := len(p.Tuples)
	if s >= n {
		return allIndices(n)
	}
	groups := p.Groups
	if groups == nil {
		groups = make([]int, n)
	}
	// Mean embedding per group.
	byGroup := map[int][]vector.Vec{}
	for i, t := range p.Tuples {
		byGroup[groups[i]] = append(byGroup[groups[i]], t)
	}
	means := map[int]vector.Vec{}
	for g, vs := range byGroup {
		means[g] = vector.Mean(vs)
	}
	type scored struct {
		idx   int
		score float64
	}
	all := make([]scored, n)
	par.For(p.Workers, n, func(i int) {
		all[i] = scored{i, p.Dist(means[groups[i]], p.Tuples[i])}
	})
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].idx < all[b].idx
	})
	out := make([]int, s)
	for i := 0; i < s; i++ {
		out[i] = all[i].idx
	}
	sort.Ints(out)
	return out
}

// medoidOf returns the default representative picker: the cluster's medoid.
func medoidOf(workers int) func(*cluster.Matrix, []int) int {
	return func(m *cluster.Matrix, members []int) int { return m.MedoidWorkers(members, workers) }
}

// clusterReps clusters the kept tuples into numClusters clusters
// (average-linkage agglomerative, as in the paper's pipeline) and returns
// one representative tuple index per cluster, chosen by pick from the
// cluster's members (positions in kept, in cluster-label order).
func clusterReps(p Problem, kept []int, numClusters int, pick func(m *cluster.Matrix, members []int) int) []int {
	if numClusters >= len(kept) {
		out := make([]int, len(kept))
		copy(out, kept)
		return out
	}
	if numClusters < 1 {
		numClusters = 1
	}
	m := cluster.NewMatrixWorkers(Gather(p.Tuples, kept), p.Dist, p.Workers)
	defer m.Release()
	dend := cluster.Agglomerative(m, cluster.Options{})
	labels, k := dend.Cut(numClusters)
	var out []int
	for _, members := range cluster.Members(labels, k) {
		out = append(out, kept[pick(m, members)])
	}
	sort.Ints(out)
	return out
}

// rerankByQueryDistance orders candidate indices by descending minimum
// distance to the query tuples, breaking ties by descending average
// distance (Example 5). With no query tuples the input order is preserved.
func rerankByQueryDistance(p Problem, candidates []int) []int {
	if len(p.Query) == 0 {
		out := make([]int, len(candidates))
		copy(out, candidates)
		return out
	}
	minD := make([]float64, len(candidates))
	avgD := make([]float64, len(candidates))
	// Candidates score in parallel; each candidate's query scan accumulates
	// sequentially, keeping the scores bit-identical for any worker count.
	par.For(p.Workers, len(candidates), func(ci int) {
		t := p.Tuples[candidates[ci]]
		var sum float64
		for qi, q := range p.Query {
			d := p.Dist(t, q)
			sum += d
			if qi == 0 || d < minD[ci] {
				minD[ci] = d
			}
		}
		avgD[ci] = sum / float64(len(p.Query))
	})
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if minD[order[a]] != minD[order[b]] {
			return minD[order[a]] > minD[order[b]]
		}
		if avgD[order[a]] != avgD[order[b]] {
			return avgD[order[a]] > avgD[order[b]]
		}
		return candidates[order[a]] < candidates[order[b]]
	})
	out := make([]int, len(candidates))
	for i, o := range order {
		out[i] = candidates[o]
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
