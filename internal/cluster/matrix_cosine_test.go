package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
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

// drainWorkBufs empties the free list of n² buffers, so the next cosine
// matrix is built in a freshly allocated one, as the first of a process is.
func drainWorkBufs() {
	for {
		select {
		case buf := <-workBufs:
			bufferBytes.Add(-4 * int64(cap(buf)))
		default:
			return
		}
	}
}

// TestAgglomerativeScratchLeaksNothing: clustering consumes a cosine
// matrix's cells, and Release lists the buffer with cluster distances, a
// +Inf diagonal and compacted rows in it. A matrix built in such a buffer —
// or in one poisoned with NaN, larger than needed and exactly as large — has
// the cells of one built in fresh memory and clusters to the same
// dendrogram: first in a fresh buffer, then back to back in buffers the
// other problem dirtied (larger and smaller), then from concurrent
// goroutines.
func TestAgglomerativeScratchLeaksNothing(t *testing.T) {
	for _, n := range []int{1, 2, 31, 32, 33, 257} {
		items := awkwardVecs(n, 16)
		drainWorkBufs()
		fresh := NewMatrixWorkers(items, vector.CosineDistance, 2)
		for _, side := range []int{n, n + 3} {
			drainWorkBufs()
			poison := takeWorkBuf(side)
			for i := range poison {
				poison[i] = float32(math.NaN())
			}
			returnWorkBuf(poison)
			reused := NewMatrixWorkers(items, vector.CosineDistance, 2)
			if len(workBufs) != 0 {
				t.Fatalf("n=%d: the matrix did not take the listed buffer", n)
			}
			if !reflect.DeepEqual(reused.d, fresh.d) {
				t.Fatalf("n=%d: matrix built in a poisoned %dx%d buffer differs from the fresh one", n, side, side)
			}
			reused.Release()
			if reused.d != nil || len(workBufs) != 1 {
				t.Fatalf("Release left %d cells with the matrix and %d buffers on the list", len(reused.d), len(workBufs))
			}
		}
	}
	type problem struct {
		items []vector.Vec
		opts  Options
		want  *Dendrogram
	}
	big := &problem{items: awkwardVecs(257, 16)}
	small := &problem{
		items: duplicatedVecs(60, 5),
		opts:  Options{CannotLink: func(i, j int) bool { return i/4 == j/4 }},
	}
	run := func(p *problem) *Dendrogram {
		m := NewMatrixWorkers(p.items, vector.CosineDistance, 1)
		defer m.Release()
		return Agglomerative(m, p.opts)
	}
	for _, p := range []*problem{big, small} {
		drainWorkBufs()
		m := NewMatrix(p.items, vector.CosineDistance)
		cells := slices.Clone(m.d)
		p.want = Agglomerative(m, p.opts)
		if len(p.want.Merges) == 0 {
			t.Fatal("fixture produced no merges")
		}
		if slices.Equal(m.d, cells) {
			t.Fatal("clustering left the cells as built: the buffers below would not be dirty")
		}
		m.Release()
	}
	check := func(label string, p *problem) error {
		if got := run(p); !reflect.DeepEqual(got, p.want) {
			return fmt.Errorf("%s: dendrogram differs from the fresh-buffer run", label)
		}
		return nil
	}
	for i, p := range []*problem{big, small, small, big, small, big} {
		if err := check(fmt.Sprintf("back to back #%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				p := []*problem{big, small}[(g+i)%2]
				if err := check(fmt.Sprintf("goroutine %d run %d", g, i), p); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
