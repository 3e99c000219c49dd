package cluster

import (
	"math"
	"math/rand"
	"testing"

	"dust/internal/vector"
)

// threeBlobs returns 3 well-separated gaussian blobs of the given size each.
func threeBlobs(perBlob int, seed int64) ([]vector.Vec, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := []vector.Vec{{0, 0}, {10, 0}, {0, 10}}
	var items []vector.Vec
	var truth []int
	for c, ctr := range centers {
		for i := 0; i < perBlob; i++ {
			items = append(items, vector.Vec{ctr[0] + rng.NormFloat64()*0.5, ctr[1] + rng.NormFloat64()*0.5})
			truth = append(truth, c)
		}
	}
	return items, truth
}

func TestMatrixBasics(t *testing.T) {
	items := []vector.Vec{{0, 0}, {3, 4}, {6, 8}}
	m := NewMatrix(items, vector.Euclidean)
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if got := m.At(0, 1); math.Abs(got-5) > 1e-6 {
		t.Errorf("At(0,1) = %v, want 5", got)
	}
	if m.At(1, 0) != m.At(0, 1) {
		t.Error("matrix not symmetric")
	}
	if m.At(2, 2) != 0 {
		t.Error("self distance not 0")
	}
}

func TestMedoid(t *testing.T) {
	items := []vector.Vec{{0, 0}, {1, 0}, {2, 0}, {10, 0}}
	m := NewMatrix(items, vector.Euclidean)
	if got := m.Medoid([]int{0, 1, 2}); got != 1 {
		t.Errorf("Medoid = %d, want 1 (central point)", got)
	}
	if got := m.Medoid([]int{3}); got != 3 {
		t.Errorf("Medoid singleton = %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Medoid of empty set did not panic")
		}
	}()
	m.Medoid(nil)
}

func TestAgglomerativeRecoversBlobs(t *testing.T) {
	items, truth := threeBlobs(15, 42)
	m := NewMatrix(items, vector.Euclidean)
	dend := Agglomerative(m, Options{})
	labels, k := dend.Cut(3)
	if k != 3 {
		t.Fatalf("Cut(3) produced %d clusters", k)
	}
	// All items of a true blob must share a label and blobs must differ.
	blobLabel := map[int]int{}
	for i, tr := range truth {
		if l, ok := blobLabel[tr]; ok {
			if labels[i] != l {
				t.Fatalf("blob %d split across clusters", tr)
			}
		} else {
			blobLabel[tr] = labels[i]
		}
	}
	if len(blobLabel) != 3 {
		t.Fatal("blobs merged")
	}
}

func TestDendrogramMergeDistancesMonotone(t *testing.T) {
	// Average linkage on euclidean distances is reducible, so NN-chain must
	// produce merges that can be sorted without inversions after sorting by
	// distance; we verify the weaker but sufficient property that a Cut at
	// every k produces nested partitions.
	items, _ := threeBlobs(10, 7)
	m := NewMatrix(items, vector.Euclidean)
	dend := Agglomerative(m, Options{})
	prev, prevK := dend.Cut(len(items))
	for k := len(items) - 1; k >= 1; k-- {
		cur, curK := dend.Cut(k)
		if curK > prevK {
			t.Fatalf("cluster count increased from %d to %d", prevK, curK)
		}
		// Nested: items sharing a label in prev must share one in cur.
		rep := map[int]int{}
		for i := range prev {
			if r, ok := rep[prev[i]]; ok {
				if cur[i] != cur[r] {
					t.Fatalf("cut at k=%d breaks nesting", k)
				}
			} else {
				rep[prev[i]] = i
			}
		}
		prev, prevK = cur, curK
	}
}

func TestCannotLinkConstraint(t *testing.T) {
	// Two tight pairs; constraint forbids the tightest merge.
	items := []vector.Vec{{0, 0}, {0.1, 0}, {5, 0}, {5.1, 0}}
	m := NewMatrix(items, vector.Euclidean)
	forbidden := func(i, j int) bool { return (i == 0 && j == 1) || (i == 1 && j == 0) }
	dend := Agglomerative(m, Options{CannotLink: forbidden})
	for k := len(items); k >= 1; k-- {
		labels, _ := dend.Cut(k)
		if labels[0] == labels[1] {
			t.Fatalf("cut at k=%d put cannot-link items together", k)
		}
	}
}

func TestCannotLinkPropagatesThroughMerges(t *testing.T) {
	// 0 and 3 are forbidden. 0 merges with 1 and 3 with 4 first; the merged
	// clusters must then still refuse to merge with each other.
	items := []vector.Vec{{0, 0}, {0.1, 0}, {0.2, 0}, {0.35, 0}, {0.45, 0}}
	m := NewMatrix(items, vector.Euclidean)
	forbidden := func(i, j int) bool {
		return (i == 0 && j == 3) || (i == 3 && j == 0)
	}
	dend := Agglomerative(m, Options{CannotLink: forbidden})
	for k := len(items); k >= 1; k-- {
		labels, _ := dend.Cut(k)
		if labels[0] == labels[3] {
			t.Fatalf("cut at k=%d violated propagated cannot-link", k)
		}
	}
}

func TestCutExtremes(t *testing.T) {
	items, _ := threeBlobs(5, 3)
	m := NewMatrix(items, vector.Euclidean)
	dend := Agglomerative(m, Options{})
	labels, k := dend.Cut(1)
	if k != 1 {
		t.Errorf("Cut(1) gave %d clusters", k)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("Cut(1) labels not uniform")
		}
	}
	labels, k = dend.Cut(1000)
	if k != len(items) {
		t.Errorf("Cut(1000) gave %d clusters, want %d singletons", k, len(items))
	}
	seen := map[int]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Fatal("Cut above n produced shared labels")
		}
		seen[l] = true
	}
}

func TestAgglomerativeTrivialSizes(t *testing.T) {
	empty := Agglomerative(&Matrix{n: 0}, Options{})
	if len(empty.Merges) != 0 {
		t.Error("empty matrix produced merges")
	}
	one := Agglomerative(NewMatrix([]vector.Vec{{1}}, vector.Euclidean), Options{})
	if len(one.Merges) != 0 {
		t.Error("single item produced merges")
	}
}

func TestSilhouetteQuality(t *testing.T) {
	items, truth := threeBlobs(10, 11)
	m := NewMatrix(items, vector.Euclidean)
	good := silhouette(m, truth, 3)
	if good < 0.8 {
		t.Errorf("silhouette of true labels = %v, want > 0.8", good)
	}
	// A bad labelling (round-robin) must score much lower.
	bad := make([]int, len(items))
	for i := range bad {
		bad[i] = i % 3
	}
	if s := silhouette(m, bad, 3); s >= good {
		t.Errorf("round-robin silhouette %v >= true %v", s, good)
	}
	if !math.IsNaN(silhouette(m, make([]int, len(items)), 1)) {
		t.Error("silhouette of single cluster should be NaN")
	}
}

func TestBestCutFindsTrueK(t *testing.T) {
	items, _ := threeBlobs(12, 5)
	m := NewMatrix(items, vector.Euclidean)
	dend := Agglomerative(m, Options{})
	_, k, score := BestCut(m, dend, 2, 10)
	if k != 3 {
		t.Errorf("BestCut chose k=%d (score %v), want 3", k, score)
	}
	if score < 0.8 {
		t.Errorf("BestCut score = %v, want > 0.8", score)
	}
}

func TestMembers(t *testing.T) {
	groups := Members([]int{0, 1, 0, 2, 1}, 3)
	if len(groups) != 3 || len(groups[0]) != 2 || len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Errorf("Members = %v", groups)
	}
}

func TestNewMatrixFromFunc(t *testing.T) {
	m := NewMatrixFromFunc(3, func(i, j int) float64 { return float64(i + j) })
	if m.At(1, 2) != 3 {
		t.Errorf("At(1,2) = %v, want 3", m.At(1, 2))
	}
	if m.At(2, 1) != 3 {
		t.Error("not symmetric")
	}
}
