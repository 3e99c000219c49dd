package diversify

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dust/internal/vector"
)

// clusteredProblem builds a problem whose lake tuples form `clusters` tight
// blobs; one blob sits exactly on the query tuples (redundant tuples), the
// rest are novel.
func clusteredProblem(clusters, perCluster, k int, seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	dim := 8
	centers := make([]vector.Vec, clusters)
	for c := range centers {
		v := make(vector.Vec, dim)
		v[c%dim] = 5
		v[(c+3)%dim] = float64(c)
		centers[c] = v
	}
	var tuples []vector.Vec
	var groups []int
	for c, ctr := range centers {
		for i := 0; i < perCluster; i++ {
			v := make(vector.Vec, dim)
			for j := range v {
				v[j] = ctr[j] + rng.NormFloat64()*0.05
			}
			tuples = append(tuples, v)
			groups = append(groups, c%3)
		}
	}
	// Query = two tuples at cluster 0's center (so cluster 0 is redundant).
	query := []vector.Vec{centers[0], vector.Add(centers[0], make(vector.Vec, dim))}
	return Problem{Query: query, Tuples: tuples, Groups: groups, K: k, Dist: vector.Euclidean}
}

func TestDUSTSpreadsAcrossClusters(t *testing.T) {
	// 6 blobs, k=6 with p=2: candidates are ~2 medoids per blob and
	// re-ranking keeps the 6 farthest from the query, so the selection
	// must cover at least 3 distinct blobs and never the query-coincident
	// blob 0.
	p := clusteredProblem(6, 10, 6, 5)
	sel := NewDUST().Select(p)
	clustersHit := map[int]bool{}
	for _, idx := range sel {
		clustersHit[idx/10] = true
	}
	if len(clustersHit) < 3 {
		t.Errorf("DUST hit only %d distinct clusters, want >= 3", len(clustersHit))
	}
	if clustersHit[0] {
		t.Error("DUST selected from the query-coincident blob")
	}
}

func TestDUSTAvoidsRedundantCluster(t *testing.T) {
	// Cluster 0 coincides with the query; with k=3 of 6 clusters, DUST's
	// re-ranking must avoid cluster 0 entirely.
	p := clusteredProblem(6, 10, 3, 6)
	sel := NewDUST().Select(p)
	for _, idx := range sel {
		if idx/10 == 0 {
			t.Errorf("DUST selected redundant tuple %d from the query-coincident cluster", idx)
		}
	}
}

func TestDUSTRerankMatchesPaperExample5(t *testing.T) {
	// The exact distance table from Fig. 4, encoded via a custom distance
	// function over 1-d "ids".
	dist := map[[2]int]float64{
		{0, 100}: 0.3, {0, 101}: 0.1, {0, 102}: 0.9,
		{1, 100}: 0.5, {1, 101}: 0.4, {1, 102}: 0.6,
		{2, 100}: 0.75, {2, 101}: 0.5, {2, 102}: 0.1,
		{3, 100}: 0.4, {3, 101}: 0.55, {3, 102}: 0.5,
		{4, 100}: 0.9, {4, 101}: 0.75, {4, 102}: 0.01,
		{5, 100}: 0.0, {5, 101}: 0.99, {5, 102}: 0.2,
	}
	// Tuples 0..5 are t1..t6, queries 100..102 are q1..q3; embeddings are
	// just id vectors.
	mkVec := func(id int) vector.Vec { return vector.Vec{float64(id)} }
	p := Problem{
		Query:  []vector.Vec{mkVec(100), mkVec(101), mkVec(102)},
		Tuples: []vector.Vec{mkVec(0), mkVec(1), mkVec(2), mkVec(3), mkVec(4), mkVec(5)},
		K:      6,
		Dist: func(a, b vector.Vec) float64 {
			x, y := int(a[0]), int(b[0])
			if x > y {
				x, y = y, x
			}
			if d, ok := dist[[2]int{x, y}]; ok {
				return d
			}
			return 0
		},
	}
	ranked := rerankByQueryDistance(p, allIndices(6))
	want := []int{1, 3, 2, 0, 4, 5} // t2 t4 t3 t1 t5 t6 (Example 5 ranking)
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("rank %d = t%d, want t%d (full: %v)", i+1, ranked[i]+1, want[i]+1, ranked)
		}
	}
}

func TestPruneKeepsOutliers(t *testing.T) {
	// One group: 10 tuples at origin, 2 far away. Pruning to 2 must keep
	// the far ones.
	var tuples []vector.Vec
	for i := 0; i < 10; i++ {
		tuples = append(tuples, vector.Vec{0, 0})
	}
	tuples = append(tuples, vector.Vec{10, 0}, vector.Vec{0, 10})
	p := Problem{Tuples: tuples, K: 2, Dist: vector.Euclidean}
	kept := Prune(p.Normalized(), 2)
	if len(kept) != 2 {
		t.Fatalf("kept %d, want 2", len(kept))
	}
	if kept[0] != 10 || kept[1] != 11 {
		t.Errorf("kept %v, want the two outliers [10 11]", kept)
	}
}

func TestPrunePerGroupMeans(t *testing.T) {
	// Two groups with different centers: pruning must measure distance to
	// the group's own mean, not the global mean.
	tuples := []vector.Vec{
		{0, 0}, {0, 0}, {3, 0}, // group 0: mean ~(1,0); idx 2 is its outlier
		{10, 10}, {10, 10}, {10, 13}, // group 1: idx 5 is its outlier
	}
	p := Problem{
		Tuples: tuples,
		Groups: []int{0, 0, 0, 1, 1, 1},
		K:      2, Dist: vector.Euclidean,
	}
	kept := Prune(p.Normalized(), 2)
	if !(slices.Contains(kept, 2) && slices.Contains(kept, 5)) {
		t.Errorf("kept %v, want the per-group outliers [2 5]", kept)
	}
}

func TestMetricsOnKnownValues(t *testing.T) {
	q := []vector.Vec{{0, 0}}
	sel := []vector.Vec{{3, 4}, {0, 5}}
	// distances: q-t1=5, q-t2=5, t1-t2=sqrt(9+1)=sqrt(10)
	avg := AverageDiversity(q, sel, vector.Euclidean)
	want := (5 + 5 + math.Sqrt(10)) / 3
	if math.Abs(avg-want) > 1e-12 {
		t.Errorf("AverageDiversity = %v, want %v", avg, want)
	}
	min := MinDiversity(q, sel, vector.Euclidean)
	if math.Abs(min-math.Sqrt(10)) > 1e-12 {
		t.Errorf("MinDiversity = %v, want sqrt(10)", min)
	}
}

func TestMetricsDegenerate(t *testing.T) {
	if AverageDiversity(nil, nil, nil) != 0 {
		t.Error("empty AverageDiversity should be 0")
	}
	if MinDiversity(nil, nil, nil) != 0 {
		t.Error("empty MinDiversity should be 0")
	}
	// Single selected tuple with no query: no pairs at all.
	if MinDiversity(nil, []vector.Vec{{1}}, vector.Euclidean) != 0 {
		t.Error("single-tuple MinDiversity with no query should be 0")
	}
}
