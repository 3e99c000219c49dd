// Package cluster implements the hierarchical clustering substrate used by
// three parts of the reproduction: holistic column alignment (paper §3.3),
// DUST's candidate-tuple selection (§5.2), and the CLT baseline (§6.4.2).
// It provides agglomerative clustering with average linkage (the paper's
// rule, §6.2.1) via the nearest-neighbour-chain algorithm, cannot-link
// constraints (no two columns of the same table may align),
// silhouette-coefficient model selection, and medoid extraction.
package cluster

import (
	"math"

	"dust/internal/par"
	"dust/internal/vector"
)

// Matrix is a symmetric pairwise distance matrix: n² float32 cells, 4·n²
// bytes, both halves stored. A cosine matrix takes its cells from the free
// list Agglomerative's working copy comes from (workBufs) and its owner
// gives them back with Release, so a steady run of clusterings holds two n²
// buffers and allocates neither; the cosine path adds a transient 8·n·dim
// unit-row arena while the matrix is filled.
type Matrix struct {
	n int
	d []float32
}

// NewMatrix computes the pairwise distance matrix of items under dist,
// sequentially. Use NewMatrixWorkers when dist is concurrency-safe and the
// workload warrants fanning out.
func NewMatrix(items []vector.Vec, dist vector.DistanceFunc) *Matrix {
	return NewMatrixWorkers(items, dist, 1)
}

// NewMatrixWorkers is NewMatrix with an explicit worker bound (<= 0 means
// the GOMAXPROCS default, 1 the sequential path). dist must be safe for
// concurrent calls when workers != 1; each cell is computed exactly once,
// so the result is identical for every worker count.
//
// When dist is vector.CosineDistance itself the matrix is filled from unit
// rows (normalise once, one multiply-add per element, see vector.UnitRows)
// and agrees with the generic loop to float32 rounding; every other
// distance takes the generic per-pair loop.
func NewMatrixWorkers(items []vector.Vec, dist vector.DistanceFunc, workers int) *Matrix {
	if vector.IsCosineDistance(dist) {
		return newCosineMatrix(items, workers)
	}
	return NewMatrixFromFuncWorkers(len(items), func(i, j int) float64 {
		return dist(items[i], items[j])
	}, workers)
}

// mirrorBlock is the side of the square blocks the cosine path copies from
// the upper triangle into the lower one: a 32x32 float32 block is 4 KB read
// and 4 KB written, so both stay in L1 while the copy turns rows into
// columns, instead of one store a whole matrix row apart per cell.
const mirrorBlock = 32

// newCosineMatrix fills the upper triangle four rows (one panel of unit
// rows) at a time, then mirrors it in blocks. The mirror pass hands each
// worker whole block-rows of the lower triangle, so writes are disjoint in
// both passes, and every cell depends only on its two rows — the matrix is
// bit-identical for every worker count. The cells come off the free list
// with arbitrary contents and every one is written: the upper triangle by
// the kernel (which also writes the panel's own lower cells, for the mirror
// to overwrite), the diagonal here, the lower triangle by the mirror.
func newCosineMatrix(items []vector.Vec, workers int) *Matrix {
	n := len(items)
	m := &Matrix{n: n, d: takeWorkBuf(n)}
	u := vector.NewUnitRows(items)
	forPairedRows(workers, (n+vector.PanelRows-1)/vector.PanelRows, func(p int) {
		var rows [vector.PanelRows][]float32
		i0, i1 := p*vector.PanelRows, min((p+1)*vector.PanelRows, n)
		for i := i0; i < i1; i++ {
			rows[i-i0] = m.d[i*n : (i+1)*n]
		}
		u.CosineDistances(p, i0, &rows)
		for i := i0; i < i1; i++ {
			m.d[i*n+i] = 0
		}
	})
	par.For(workers, (n+mirrorBlock-1)/mirrorBlock, func(bi int) {
		i0, i1 := bi*mirrorBlock, min((bi+1)*mirrorBlock, n)
		for j0 := 0; j0 < i1; j0 += mirrorBlock {
			for i := i0; i < i1; i++ {
				row := m.d[i*n : (i+1)*n]
				for j, hi := j0, min(j0+mirrorBlock, i); j < hi; j++ {
					row[j] = m.d[j*n+i]
				}
			}
		}
	})
	return m
}

// NewMatrixFromFunc builds a distance matrix by calling f for every pair
// (i < j), sequentially.
func NewMatrixFromFunc(n int, f func(i, j int) float64) *Matrix {
	return NewMatrixFromFuncWorkers(n, f, 1)
}

// NewMatrixFromFuncWorkers builds a distance matrix in parallel row blocks.
// Each worker owns disjoint rows and writes disjoint cells — (i,j) and its
// mirror (j,i) are written only by the worker computing row min(i,j) — so
// construction is race-free and bit-identical to the sequential loop.
func NewMatrixFromFuncWorkers(n int, f func(i, j int) float64, workers int) *Matrix {
	m := &Matrix{n: n, d: make([]float32, n*n)}
	forPairedRows(workers, n, func(i int) {
		for j := i + 1; j < n; j++ {
			v := float32(f(i, j))
			m.d[i*n+j] = v
			m.d[j*n+i] = v
		}
	})
	return m
}

// forPairedRows runs fillRow(i) for every row (or row panel) of an n-row
// upper triangle. Rows are paired (i with n-1-i) so every work unit covers a
// near-constant number of upper-triangle cells despite the triangular
// iteration space.
func forPairedRows(workers, n int, fillRow func(i int)) {
	par.For(workers, (n+1)/2, func(i int) {
		fillRow(i)
		if j := n - 1 - i; j > i {
			fillRow(j)
		}
	})
}

// Len returns the number of items.
func (m *Matrix) Len() int { return m.n }

// Release hands the matrix's cells to the next clustering run. The matrix
// must not be used afterwards.
func (m *Matrix) Release() {
	returnWorkBuf(m.d)
	m.d = nil
}

// At returns the distance between items i and j.
func (m *Matrix) At(i, j int) float64 { return float64(m.d[i*m.n+j]) }

// medoidParallelThreshold is the member count above which Medoid fans the
// per-member distance sums out to the worker pool; below it the goroutine
// overhead dwarfs the O(len(members)^2) scan.
const medoidParallelThreshold = 128

// Medoid returns the member of the given item set with the minimum total
// distance to the other members (ties break to the member listed first),
// sequentially. It panics on an empty set.
func (m *Matrix) Medoid(members []int) int {
	return m.MedoidWorkers(members, 1)
}

// MedoidWorkers is Medoid with an explicit worker bound. Each member's
// distance sum accumulates sequentially in member order inside one
// goroutine, and the argmin scan stays sequential, so the selection is
// bit-identical for every worker count.
func (m *Matrix) MedoidWorkers(members []int, workers int) int {
	if len(members) == 0 {
		panic("cluster: Medoid of empty set")
	}
	if len(members) < medoidParallelThreshold {
		workers = 1
	}
	sums := par.Map(workers, len(members), func(k int) float64 {
		var sum float64
		for _, j := range members {
			sum += m.At(members[k], j)
		}
		return sum
	})
	best := members[0]
	bestSum := math.Inf(1)
	for k, i := range members {
		if sums[k] < bestSum {
			bestSum = sums[k]
			best = i
		}
	}
	return best
}
