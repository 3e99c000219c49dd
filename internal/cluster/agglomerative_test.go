package cluster

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"dust/internal/vector"
)

// agglomerative runs the clustering Partition and BestPartition run, in
// m's own cells, which it consumes, and returns the dendrogram in fresh
// memory for a test to read.
func agglomerative(m *Matrix, opts Options) *dendrogram {
	defer runtime.KeepAlive(m)
	d := m.cells()
	m.consumed = true
	s := takeScratch()
	defer s.release()
	dend := s.agglomerate(d, m.n, opts)
	return &dendrogram{N: dend.N, Merges: slices.Clone(dend.Merges)}
}

// cut is the scratch cut of the dendrogram, its labels in fresh memory.
func (d *dendrogram) cut(k int) (labels []int, actual int) {
	s := takeScratch()
	defer s.release()
	labels, actual = s.cut(*d, k)
	return slices.Clone(labels), actual
}

// members groups leaf indices by label as the entry points return them.
func members(labels []int, k int) [][]int {
	s := takeScratch()
	defer s.release()
	return s.groups(labels, k)
}

// clone copies m's cells into a matrix of their own, with no unit rows.
func clone(m *Matrix) *Matrix {
	defer runtime.KeepAlive(m)
	return &Matrix{n: m.n, d: slices.Clone(m.cells())}
}

// referenceAgglomerative is the nearest-neighbour chain as it stood before
// the cluster kernels: a fresh copy of the matrix with its zero diagonal
// skipped by index, the scan and the average-linkage update walking the
// ascending live list, no mask and no compaction.
func referenceAgglomerative(m *Matrix, cannotLink func(i, j int) bool) *dendrogram {
	n := m.n
	dend := &dendrogram{N: n}
	if n <= 1 {
		return dend
	}
	d := slices.Clone(m.d)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && cannotLink != nil; j++ {
			if cannotLink(i, j) {
				d[i*n+j], d[j*n+i] = float32(math.Inf(1)), float32(math.Inf(1))
			}
		}
	}
	active, size, id := make([]int, n), make([]int, n), make([]int, n)
	for i := range active {
		active[i], size[i], id[i] = i, 1, i
	}
	nextID, chain, frozen := n, []int{}, make([]bool, n)
	for len(active) > 1 {
		if len(chain) == 0 {
			start := -1
			for _, i := range active {
				if !frozen[i] {
					start = i
					break
				}
			}
			if start == -1 {
				break
			}
			chain = append(chain, start)
		}
		a := chain[len(chain)-1]
		b, dist := -1, float32(math.Inf(1))
		for _, j := range active {
			if d[a*n+j] < dist && j != a {
				b, dist = j, d[a*n+j]
			}
		}
		if b == -1 {
			frozen[a] = true
			chain = chain[:len(chain)-1]
			continue
		}
		if len(chain) < 2 || b != chain[len(chain)-2] {
			chain = append(chain, b)
			continue
		}
		chain = chain[:len(chain)-2]
		dend.Merges = append(dend.Merges, merge{A: id[a], B: id[b], Distance: float64(dist), New: nextID})
		wa := float64(size[a]) / float64(size[a]+size[b])
		wb := float64(size[b]) / float64(size[a]+size[b])
		for _, k := range active {
			if k != a && k != b {
				nd := float32(float64(wa*float64(d[a*n+k])) + float64(wb*float64(d[b*n+k])))
				d[a*n+k], d[k*n+a] = nd, nd
			}
		}
		at := sort.SearchInts(active, b)
		active = append(active[:at], active[at+1:]...)
		size[a] += size[b]
		id[a] = nextID
		nextID++
	}
	slices.SortStableFunc(dend.Merges, func(x, y merge) int { return cmp.Compare(x.Distance, y.Distance) })
	return dend
}

// sameDendrogram compares two dendrograms merge by merge, distances bitwise.
func sameDendrogram(got, want *dendrogram) error {
	if got.N != want.N || len(got.Merges) != len(want.Merges) {
		return fmt.Errorf("%d leaves, %d merges; want %d, %d", got.N, len(got.Merges), want.N, len(want.Merges))
	}
	for i, g := range got.Merges {
		w := want.Merges[i]
		if g.A != w.A || g.B != w.B || g.New != w.New || math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			return fmt.Errorf("merge %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// duplicatedVecs is syntheticVecs with an eighth of the rows byte-identical
// copies of earlier ones (some copied twice) and one zero row: a tall pool
// is 7.6 % exact duplicates, so zero-distance ties are the normal case.
func duplicatedVecs(n, dim int) []vector.Vec {
	items := syntheticVecs(n, dim)
	for i := range items {
		if i%8 == 5 {
			items[i] = items[i/3]
		}
	}
	if n > 2 {
		items[n/2] = make(vector.Vec, dim)
	}
	return items
}

// TestAgglomerativeKernelsMatchReference runs Agglomerative under both
// bodies of the cluster kernels — which the whole run, compaction included,
// goes through — and requires the reference chain's dendrogram, merge for
// merge and distance bit for bit: on cosine pools with duplicate rows, with
// and without cannot-link, and on a matrix of five distinct distances where
// almost every scan is a tie.
func TestAgglomerativeKernelsMatchReference(t *testing.T) {
	type fixture struct {
		name       string
		m          *Matrix
		cannotLink func(i, j int) bool
	}
	var fixtures []fixture
	for _, n := range []int{2, 3, 31, 32, 33, 63, 64, 65, 257, 1000} {
		cos := NewMatrixWorkers(duplicatedVecs(n, 16), vector.CosineDistance, 2)
		ties := NewMatrixFromFunc(n, func(i, j int) float64 { return float64((i*j + i + j) % 5) })
		fixtures = append(fixtures,
			fixture{fmt.Sprintf("cosine/%d", n), cos, nil},
			fixture{fmt.Sprintf("cosine+cannot-link/%d", n), cos, func(i, j int) bool { return i%5 == j%5 }},
			fixture{fmt.Sprintf("ties/%d", n), ties, nil},
		)
	}
	want := make([]*dendrogram, len(fixtures))
	for i, f := range fixtures {
		want[i] = referenceAgglomerative(f.m, f.cannotLink)
	}
	check := func(t *testing.T) {
		for i, f := range fixtures {
			if err := sameDendrogram(agglomerative(clone(f.m), Options{CannotLink: f.cannotLink}), want[i]); err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
		}
	}
	t.Run(vector.CosineKernel(), check)
	if vector.CosineKernel() != "generic" {
		defer vector.ForceGenericKernel()()
		t.Run(vector.CosineKernel(), check)
	}
}

// BenchmarkAgglomerative times one clustering run of a cosine matrix at the
// served dimension, duplicates included, under each body of the cluster
// kernels: n = 1000 is the tall workload's pool. Each run consumes the
// cells, so it first copies them back into one reused matrix.
func BenchmarkAgglomerative(b *testing.B) {
	for _, n := range []int{300, 1000} {
		m := NewMatrix(duplicatedVecs(n, 128), vector.CosineDistance)
		work := clone(m)
		bodies := []string{vector.CosineKernel()}
		if bodies[0] != "generic" {
			bodies = append(bodies, "generic")
		}
		for _, body := range bodies {
			b.Run(fmt.Sprintf("%d/%s", n, body), func(b *testing.B) {
				if body == "generic" {
					defer vector.ForceGenericKernel()()
				}
				for i := 0; i < b.N; i++ {
					copy(work.d, m.d)
					work.consumed = false
					agglomerative(work, Options{})
				}
			})
		}
	}
}
