package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dust/internal/vector"
)

// silhouette is the mean silhouette coefficient of the labelled clustering,
// scored from scratch: items in singleton clusters contribute 0, and it is
// NaN with fewer than 2 clusters or items. It is the scoring bestCut's sweep
// replaced, kept as its reference.
func silhouette(m *Matrix, labels []int, numClusters int) float64 {
	n := m.Len()
	if n < 2 || numClusters < 2 {
		return math.NaN()
	}
	members := members(labels, numClusters)
	var total float64
	for i := 0; i < n; i++ {
		own := members[labels[i]]
		if len(own) <= 1 {
			continue // silhouette of a singleton is 0
		}
		// a = mean distance to own cluster (excluding self).
		var a float64
		for _, j := range own {
			if j != i {
				a += m.At(i, j)
			}
		}
		a /= float64(len(own) - 1)
		// b = min over other clusters of mean distance.
		b := math.Inf(1)
		for c, mem := range members {
			if c == labels[i] || len(mem) == 0 {
				continue
			}
			var s float64
			for _, j := range mem {
				s += m.At(i, j)
			}
			s /= float64(len(mem))
			if s < b {
				b = s
			}
		}
		if mx := math.Max(a, b); mx > 0 {
			total += (b - a) / mx
		}
	}
	return total / float64(n)
}

// bestCutPerCut is BestPartition's reference: the items' matrix filled
// pair by pair through dist, clustered by the reference chain, and every
// cut from minK to maxK clusters cut and scored from scratch, the first
// best one kept.
func bestCutPerCut(items []vector.Vec, dist vector.DistanceFunc, minK, maxK int, opts Options) (clusters [][]int, score float64) {
	m := NewMatrixFromFunc(len(items), func(i, j int) float64 { return dist(items[i], items[j]) })
	d := referenceAgglomerative(m, opts.CannotLink)
	minK, maxK = max(minK, 2), min(maxK, d.N)
	best, k := math.Inf(-1), 0
	var labels []int
	for kk := minK; kk <= maxK; kk++ {
		l, actual := d.cut(kk)
		if actual < 2 {
			continue
		}
		s := silhouette(m, l, actual)
		if !math.IsNaN(s) && s > best {
			best = s
			labels, k, score = l, actual, s
		}
	}
	if labels == nil {
		labels, k = d.cut(minK)
		score = math.NaN()
	}
	return members(labels, k), score
}

// checkBestCut requires BestPartition to return bestCutPerCut's clusters
// and score bits.
func checkBestCut(items []vector.Vec, dist vector.DistanceFunc, opts Options, minK, maxK int) error {
	got, score := BestPartition(items, dist, minK, maxK, opts, 1)
	want, wantScore := bestCutPerCut(items, dist, minK, maxK, opts)
	if math.Float64bits(score) != math.Float64bits(wantScore) || !reflect.DeepEqual(got, want) {
		return fmt.Errorf("BestPartition(%d items, minK=%d, maxK=%d) = score %v (%#x), clusters %v; per-cut reference score %v (%#x), clusters %v",
			len(items), minK, maxK, score, math.Float64bits(score), got,
			wantScore, math.Float64bits(wantScore), want)
	}
	return nil
}

// FuzzBestCut holds BestPartition to the per-cut reference on points the
// fuzzer builds: two bytes a point, each a coordinate of 0–7 times 2^-48 to
// 2^45 (so duplicates and tied distances are common, and so are sums whose
// bits depend on the order of their terms), cannot-link groups
// i%groups == j%groups (0: none), and any bounds.
func FuzzBestCut(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 9, 9, 9, 8, 1, 0, 200, 3}, uint8(0), int8(2), int8(5))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(2), int8(2), int8(7))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 30, 30, 30, 31}, uint8(3), int8(1), int8(20))
	f.Add([]byte{4}, uint8(0), int8(-1), int8(0))
	// Merged clusters whose sums round differently in any order but
	// ascending.
	f.Add([]byte("\xba0Ra000*0\x8b#00\xf3\xcc0\xef0\xae000w0\xa900)\xdd00YCz0m"), uint8(0x1d), int8(1), int8(12))
	coord := func(b byte) float64 { return math.Ldexp(float64(b&7), int(b>>3)*3-48) }
	f.Fuzz(func(t *testing.T, data []byte, groups uint8, minK, maxK int8) {
		n := min(len(data)/2, 96)
		items := make([]vector.Vec, n)
		for i := range items {
			items[i] = vector.Vec{coord(data[2*i]), coord(data[2*i+1])}
		}
		var opts Options
		if g := int(groups % 16); g > 0 {
			opts.CannotLink = func(i, j int) bool { return i%g == j%g }
		}
		if err := checkBestCut(items, vector.Euclidean, opts, int(minK), int(maxK)); err != nil {
			t.Fatal(err)
		}
	})
}

// universe is an alignment-shaped fixture: n items in "tables" of 6 (the
// first five items are the query's columns), which cannot link within a
// table. At n = 65 it is a balanced-workload alignment.
func universe(n int) ([]vector.Vec, Options) {
	rng := rand.New(rand.NewSource(3))
	items := make([]vector.Vec, n)
	for i := range items {
		items[i] = vector.Vec{float64(i % 6), rng.NormFloat64(), rng.NormFloat64()}
	}
	table := func(i int) int { return (i + 1) / 6 }
	return items, Options{CannotLink: func(i, j int) bool { return table(i) == table(j) }}
}

// TestBestCutAllocs holds BestPartition to the clusters it returns and its
// fill's closures, the same count at 65 items and at 130: the matrix, the
// copy it is clustered in, the dendrogram, the sweep and the cut are
// scratch. (Scoring each cut from scratch once allocated a Cut and its
// Members per cut — 3 705 at 65 items.)
func TestBestCutAllocs(t *testing.T) {
	const limit = 8
	allocs := func(n int) float64 {
		items, opts := universe(n)
		return testing.AllocsPerRun(20, func() { BestPartition(items, vector.Euclidean, 5, n-1, opts, 1) })
	}
	if small, big := allocs(65), allocs(130); small != big || big > limit {
		t.Errorf("BestPartition allocates %v times a call on 65 items and %v on 130, want the same, at most %d", small, big, limit)
	}
}

var bestCutSink [][]int

// BenchmarkBestPartition times column alignment's clustering on a 65-item
// universe, the size of a balanced-workload alignment: the matrix, the
// clustering and the silhouette sweep.
func BenchmarkBestPartition(b *testing.B) {
	items, opts := universe(65)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bestCutSink, _ = BestPartition(items, vector.Euclidean, 5, 64, opts, 1)
	}
}
