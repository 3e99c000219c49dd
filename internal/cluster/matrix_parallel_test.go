package cluster

import (
	"testing"

	"dust/internal/vector"
)

// syntheticVecs builds a deterministic workload large enough to exercise
// multi-chunk scheduling and the Medoid parallel threshold.
func syntheticVecs(n, dim int) []vector.Vec {
	state := uint64(42)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40)/float64(1<<24) - 0.5
	}
	out := make([]vector.Vec, n)
	for i := range out {
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = next()
		}
		out[i] = v
	}
	return out
}

// TestNewMatrixWorkersDeterministic compares whole matrices bit for bit
// across worker counts, on the cosine unit-row path (at a tile-aligned and a
// ragged shape) and on the generic per-pair path.
func TestNewMatrixWorkersDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, dim int
		dist   vector.DistanceFunc
	}{
		{"cosine/301x8", 301, 8, vector.CosineDistance},
		{"cosine/257x127", 257, 127, vector.CosineDistance},
		{"euclidean/301x8", 301, 8, vector.Euclidean},
	} {
		items := syntheticVecs(tc.n, tc.dim)
		seq := NewMatrixWorkers(items, tc.dist, 1)
		for _, workers := range []int{2, 8} {
			got := NewMatrixWorkers(items, tc.dist, workers)
			if got.Len() != seq.Len() {
				t.Fatalf("%s workers=%d: Len %d, want %d", tc.name, workers, got.Len(), seq.Len())
			}
			for c := range seq.d {
				if got.d[c] != seq.d[c] {
					t.Fatalf("%s workers=%d: At(%d,%d) = %v, want %v",
						tc.name, workers, c/tc.n, c%tc.n, got.d[c], seq.d[c])
				}
			}
		}
	}
}

func TestNewMatrixFromFuncWorkersDeterministic(t *testing.T) {
	f := func(i, j int) float64 { return float64(i*1000+j) / 7 }
	seq := NewMatrixFromFuncWorkers(157, f, 1)
	got := NewMatrixFromFuncWorkers(157, f, 8)
	for i := 0; i < 157; i++ {
		for j := 0; j < 157; j++ {
			if got.At(i, j) != seq.At(i, j) {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got.At(i, j), seq.At(i, j))
			}
		}
	}
}

func TestMedoidWorkersDeterministic(t *testing.T) {
	// More members than medoidParallelThreshold so the parallel path runs.
	items := syntheticVecs(400, 8)
	m := NewMatrix(items, vector.CosineDistance)
	members := make([]int, 300)
	for i := range members {
		members[i] = i + 50
	}
	want := m.MedoidWorkers(members, 1)
	for _, workers := range []int{2, 8} {
		if got := m.MedoidWorkers(members, workers); got != want {
			t.Errorf("workers=%d: Medoid = %d, want %d", workers, got, want)
		}
	}
}
