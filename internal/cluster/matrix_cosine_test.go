package cluster

import (
	"math"
	"reflect"
	"testing"

	"dust/internal/vector"
)

// awkwardVecs is syntheticVecs made hostile to a unit-row kernel: rows at
// scales from 1e-3 to 1e3 (nothing is unit length), a zero vector, and
// byte-identical duplicates.
func awkwardVecs(n, dim int) []vector.Vec {
	items := syntheticVecs(n, dim)
	for i, v := range items {
		items[i] = vector.Scale(v, math.Pow(10, float64(i%7-3)))
	}
	if n > 2 {
		items[n/2] = make(vector.Vec, dim) // zero norm
	}
	if n > 4 {
		items[n-1] = vector.Clone(items[1]) // duplicate rows
	}
	if n > 8 {
		items[n-2] = make(vector.Vec, dim) // a second zero row
	}
	return items
}

// TestCosineMatrixMatchesGeneric checks the unit-row path cell by cell
// against the generic per-pair loop over every tile remainder and a spread
// of dimensions: within 1e-6, never negative, symmetric, zero diagonal,
// zero rows at distance 1, duplicates at distance exactly 0.
func TestCosineMatrixMatchesGeneric(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 33, 257} {
		for _, dim := range []int{1, 3, 16, 127, 128} {
			items := awkwardVecs(n, dim)
			fast := NewMatrixWorkers(items, vector.CosineDistance, 1)
			ref := NewMatrixFromFunc(n, func(i, j int) float64 {
				return vector.CosineDistance(items[i], items[j])
			})
			if fast.Len() != n {
				t.Fatalf("n=%d dim=%d: Len = %d", n, dim, fast.Len())
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					got, want := fast.At(i, j), ref.At(i, j)
					if got < 0 || math.Abs(got-want) > 1e-6 || got != fast.At(j, i) {
						t.Fatalf("n=%d dim=%d: At(%d,%d) = %v (mirror %v), generic %v",
							n, dim, i, j, got, fast.At(j, i), want)
					}
				}
				if fast.At(i, i) != 0 {
					t.Fatalf("n=%d dim=%d: diagonal At(%d,%d) = %v", n, dim, i, i, fast.At(i, i))
				}
			}
			if n > 2 && fast.At(n/2, 0) != 1 {
				t.Errorf("n=%d dim=%d: zero row at distance %v, want 1", n, dim, fast.At(n/2, 0))
			}
			if n > 8 && fast.At(n/2, n-2) != 1 {
				t.Errorf("n=%d dim=%d: two zero rows at distance %v, want 1", n, dim, fast.At(n/2, n-2))
			}
			if n > 4 && fast.At(1, n-1) != 0 {
				t.Errorf("n=%d dim=%d: duplicate rows at distance %v, want 0", n, dim, fast.At(1, n-1))
			}
		}
	}
}

// TestCosineMatrixOfSubsetIsSubMatrix: a cell depends on its two rows only,
// so the matrix of any subset is the corresponding sub-matrix, bit for bit.
func TestCosineMatrixOfSubsetIsSubMatrix(t *testing.T) {
	items := awkwardVecs(67, 128)
	full := NewMatrix(items, vector.CosineDistance)
	pick := []int{64, 3, 17, 18, 19, 40, 66, 0, 33}
	subset := make([]vector.Vec, len(pick))
	for i, p := range pick {
		subset[i] = items[p]
	}
	sub := NewMatrix(subset, vector.CosineDistance)
	for i, pi := range pick {
		for j, pj := range pick {
			if sub.d[i*len(pick)+j] != full.d[pi*67+pj] {
				t.Fatalf("sub(%d,%d) = %v, full(%d,%d) = %v", i, j, sub.At(i, j), pi, pj, full.At(pi, pj))
			}
		}
	}
}

// TestNonCosineTakesGenericPath: any distance other than
// vector.CosineDistance itself — a wrapper around it included — is computed
// pair by pair through the function handed in.
func TestNonCosineTakesGenericPath(t *testing.T) {
	items := awkwardVecs(33, 16)
	calls := 0
	wrapped := func(a, b vector.Vec) float64 { calls++; return vector.CosineDistance(a, b) }
	for name, dist := range map[string]vector.DistanceFunc{
		"wrapped cosine": wrapped, "euclidean": vector.Euclidean, "manhattan": vector.Manhattan,
	} {
		got := NewMatrix(items, dist)
		want := NewMatrixFromFunc(len(items), func(i, j int) float64 { return dist(items[i], items[j]) })
		if !reflect.DeepEqual(got.d, want.d) {
			t.Errorf("%s: matrix differs from the per-pair loop", name)
		}
	}
	if want := 2 * (33 * 32 / 2); calls != want {
		t.Errorf("wrapped cosine called %d times, want %d (once per pair per matrix)", calls, want)
	}
}
