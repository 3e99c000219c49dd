package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dust/internal/vector"
)

// silhouette is the mean silhouette coefficient of the labelled clustering,
// scored from scratch: items in singleton clusters contribute 0, and it is
// NaN with fewer than 2 clusters or items. It is the scoring BestCut's sweep
// replaced, kept as its reference.
func silhouette(m *Matrix, labels []int, numClusters int) float64 {
	n := m.Len()
	if n < 2 || numClusters < 2 {
		return math.NaN()
	}
	members := Members(labels, numClusters)
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

// bestCutPerCut is BestCut's reference: every cut from minK to maxK clusters
// cut and scored from scratch, the first best one kept.
func bestCutPerCut(m *Matrix, d *Dendrogram, minK, maxK int) (labels []int, k int, score float64) {
	if minK < 2 {
		minK = 2
	}
	if maxK > d.N {
		maxK = d.N
	}
	best := math.Inf(-1)
	for kk := minK; kk <= maxK; kk++ {
		l, actual := d.Cut(kk)
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
		labels, k = d.Cut(minK)
		score = math.NaN()
	}
	return labels, k, score
}

// checkBestCut requires BestCut to return bestCutPerCut's labels, cluster
// count and score bits.
func checkBestCut(m *Matrix, d *Dendrogram, minK, maxK int) error {
	labels, k, score := BestCut(m, d, minK, maxK)
	wantLabels, wantK, wantScore := bestCutPerCut(m, d, minK, maxK)
	if k != wantK || math.Float64bits(score) != math.Float64bits(wantScore) || !slices.Equal(labels, wantLabels) {
		return fmt.Errorf("BestCut(N=%d, %d merges, minK=%d, maxK=%d) = k %d, score %v (%#x), labels %v; per-cut reference k %d, score %v (%#x), labels %v",
			d.N, len(d.Merges), minK, maxK, k, score, math.Float64bits(score), labels,
			wantK, wantScore, math.Float64bits(wantScore), wantLabels)
	}
	return nil
}

// FuzzBestCut holds BestCut to the per-cut reference on points the fuzzer
// builds: two bytes a point, each a coordinate of 0–7 times 2^-48 to 2^45
// (so duplicates and tied distances are common, and so are sums whose bits
// depend on the order of their terms), cannot-link groups
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
		m := NewMatrix(items, vector.Euclidean)
		var opts Options
		if g := int(groups % 16); g > 0 {
			opts.CannotLink = func(i, j int) bool { return i%g == j%g }
		}
		if err := checkBestCut(m, Agglomerative(m, opts), int(minK), int(maxK)); err != nil {
			t.Fatal(err)
		}
	})
}

// universe65 is an alignment-shaped fixture: 65 items in 11 "tables" (5
// query columns, then ten tables of 6), which cannot link within a table.
func universe65() (*Matrix, *Dendrogram) {
	rng := rand.New(rand.NewSource(3))
	items := make([]vector.Vec, 65)
	for i := range items {
		items[i] = vector.Vec{float64(i % 6), rng.NormFloat64(), rng.NormFloat64()}
	}
	table := func(i int) int { return (i + 1) / 6 }
	m := NewMatrix(items, vector.Euclidean)
	return m, Agglomerative(m, Options{CannotLink: func(i, j int) bool { return table(i) == table(j) }})
}

// TestBestCutAllocs caps BestCut's allocations on a 65-item universe: the
// sweep allocates its state once and cuts once, where scoring each cut from
// scratch allocated a Cut and its Members per cut — 3 705 here.
func TestBestCutAllocs(t *testing.T) {
	m, d := universe65()
	const limit = 16
	if got := testing.AllocsPerRun(20, func() { BestCut(m, d, 5, 64) }); got > limit {
		t.Errorf("BestCut allocates %v times a call on 65 items, want at most %d", got, limit)
	}
}

var bestCutSink []int

// BenchmarkBestCut times cut selection on a 65-item universe, the size
// of a balanced-workload alignment.
func BenchmarkBestCut(b *testing.B) {
	m, d := universe65()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestCutSink, _, _ = BestCut(m, d, 5, 64)
	}
}
