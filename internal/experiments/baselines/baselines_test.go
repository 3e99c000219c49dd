package baselines

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dust/internal/cluster"
	"dust/internal/diversify"
	"dust/internal/vector"
)

// lcgProblem is n-5 lake tuples and 5 query tuples of 16 pseudo-random
// coordinates, k = 20 under cosine distance, scored with workers.
func lcgProblem(n, workers int) diversify.Problem {
	tuples := make([]vector.Vec, n)
	state := uint64(1)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40)/float64(1<<24) - 0.5
	}
	for i := range tuples {
		v := make(vector.Vec, 16)
		for j := range v {
			v[j] = next()
		}
		tuples[i] = v
	}
	return diversify.Problem{Query: tuples[:5], Tuples: tuples[5:], K: 20, Dist: vector.CosineDistance, Workers: workers}
}

func TestBaselineScoresDeterministicAcrossWorkers(t *testing.T) {
	want := noveltyScores(lcgProblem(500, 1))
	for _, workers := range []int{2, 8} {
		got := noveltyScores(lcgProblem(500, workers))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: novelty[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// cltShapes returns the two problem shapes CLT is checked on: a cloud of
// 5–34 Gaussian points in 4 dimensions with 3 query points, and six tight
// blobs of ten points in 8 dimensions with the 2 query points on the first.
func cltShapes(seed int64) []diversify.Problem {
	rng := rand.New(rand.NewSource(seed))
	point := func(center vector.Vec, sd float64) vector.Vec {
		v := make(vector.Vec, len(center))
		for j := range v {
			v[j] = center[j] + rng.NormFloat64()*sd
		}
		return v
	}
	var cloud diversify.Problem
	for i := 5 + rng.Intn(30); i > 0; i-- {
		cloud.Tuples = append(cloud.Tuples, point(make(vector.Vec, 4), 1))
	}
	for i := 0; i < 3; i++ {
		cloud.Query = append(cloud.Query, point(make(vector.Vec, 4), 1))
	}
	var blobs diversify.Problem
	for c := 0; c < 6; c++ {
		center := make(vector.Vec, 8)
		center[c%8], center[(c+3)%8] = 5, float64(c)
		for i := 0; i < 10; i++ {
			blobs.Tuples = append(blobs.Tuples, point(center, 0.05))
		}
		if c == 0 {
			blobs.Query = []vector.Vec{center, slices.Clone(center)}
		}
	}
	return []diversify.Problem{cloud, blobs}
}

// cltReference is CLT from the cluster package's entry point: partition
// all tuples into k average-linkage clusters and return each cluster's
// medoid, by index. A cosine matrix's medoids read its unit rows after
// Partition consumed its cells; a Euclidean one's read the cells, which
// Partition leaves whole.
func cltReference(p diversify.Problem) []int {
	p = p.Normalized()
	if p.K == 0 {
		return nil
	}
	m := cluster.NewMatrix(p.Tuples, p.Dist)
	defer m.Release()
	var out []int
	for _, members := range m.Partition(p.K, cluster.Options{}) {
		out = append(out, m.Medoid(members))
	}
	sort.Ints(out)
	return out
}

// TestCLTMatchesClusterMedoids ties CLT, which runs DUST with one
// candidate per output and no pruning, to the cluster medoids it stands
// for, with and without a query and under both distances.
func TestCLTMatchesClusterMedoids(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for si, shape := range cltShapes(seed) {
			for _, dist := range []vector.DistanceFunc{vector.Euclidean, vector.CosineDistance} {
				for _, query := range [][]vector.Vec{shape.Query, nil} {
					for _, k := range []int{0, 1, 3, 7, 12, 40} {
						p := diversify.Problem{Query: query, Tuples: shape.Tuples, K: k, Dist: dist}
						label := fmt.Sprintf("seed %d shape %d query %d k %d", seed, si, len(query), k)
						if got, want := (CLT{}).Select(p), cltReference(p); !slices.Equal(got, want) {
							t.Fatalf("%s: CLT = %v, cluster medoids = %v", label, got, want)
						}
					}
				}
			}
		}
	}
}

func BenchmarkDiversifyGMC(b *testing.B) {
	b.ReportAllocs()
	p := lcgProblem(1000, 0)
	algo := NewGMC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Select(p)
	}
}

func BenchmarkDiversifyCLT(b *testing.B) {
	b.ReportAllocs()
	p := lcgProblem(1000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CLT{}.Select(p)
	}
}

func BenchmarkDiversifyMaxMin(b *testing.B) {
	b.ReportAllocs()
	p := lcgProblem(1000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxMin{}.Select(p)
	}
}
