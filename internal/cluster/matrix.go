// Package cluster implements the hierarchical clustering substrate used by
// three parts of the reproduction: holistic column alignment (paper §3.3),
// DUST's candidate-tuple selection (§5.2), and the CLT baseline (§6.4.2).
// It provides agglomerative clustering with average linkage (the paper's
// rule, §6.2.1) via the nearest-neighbour-chain algorithm, cannot-link
// constraints (no two columns of the same table may align),
// silhouette-coefficient model selection, and medoid extraction.
//
// Agglomerative clusters in its matrix's own cells and consumes them: a
// caller that reads cells afterwards (BestCut, a medoid of a matrix built
// from a function) clusters a Clone. A cosine matrix keeps its unit rows,
// and its medoid reads them rather than the cells, so DUST's cluster step
// holds one n² buffer.
package cluster

import (
	"math"
	"runtime"
	"slices"

	"dust/internal/par"
	"dust/internal/region"
	"dust/internal/vector"
)

// Matrix is a symmetric pairwise distance matrix: n² float32 cells, 4·n²
// bytes, both halves stored. A cosine matrix takes one scratch region from
// a free list (matrixPool) holding its cells and the 8·n·dim unit rows it
// was filled from, which it keeps for its medoids; its owner gives the
// region back with Release, so a steady run of clusterings maps none and
// holds nothing on the collected heap. Agglomerative consumes the cells:
// afterwards At and BestCut panic, and so does Medoid unless the matrix
// has unit rows.
//
// The region is outside the collected heap (package region): every method
// that reads the cells or the unit rows ends with runtime.KeepAlive(m), and
// a matrix dropped unreleased gives its region back from the finalizer.
type Matrix struct {
	n        int
	d        []float32
	rows     []vector.Vec   // cosine matrices only: the unit rows, row-major
	self     []float64      // cosine matrices only: each row's dot with itself
	buf      *region.Region // cosine matrices only: the region d and rows live in
	consumed bool           // Agglomerative has clustered in d
}

// matrixPool lists the regions of released cosine matrices for the next
// ones: at most one per processor, each sized to the largest matrix it has
// held (region.Pool).
var matrixPool region.Pool

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
	n, dim := len(items), 0
	if n > 0 {
		dim = len(items[0])
	}
	arena := vector.UnitRowsLen(n, dim)
	buf := matrixPool.Take(8*arena + 4*n*n)
	mem := buf.Bytes()
	u := vector.NewUnitRowsIn(items, region.View[float64](mem, arena))
	m := &Matrix{n: n, d: region.View[float32](mem[8*arena:], n*n), buf: buf}
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
	m.rows, m.self = u.Unpack()
	runtime.KeepAlive(m)
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

// Clone returns a copy of m's cells in fresh memory, for a caller that
// clusters the copy and still reads m. It has no unit rows and never joins
// the free list.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{n: m.n, d: slices.Clone(m.cells())}
	runtime.KeepAlive(m)
	return c
}

// MedoidReadsCells reports whether Medoid reads m's cells — true unless m is
// a cosine matrix — so that a caller wanting medoids after Agglomerative
// must cluster a Clone.
func (m *Matrix) MedoidReadsCells() bool { return m.rows == nil }

// Release hands a cosine matrix's region — its cells, clustered or not,
// and its unit rows — back to the free list; a matrix built from a
// function leaves its cells to the collector. The matrix must not be used
// afterwards; a second Release does nothing.
func (m *Matrix) Release() {
	if m.buf != nil {
		m.buf.Release()
	}
	m.d, m.rows, m.self, m.buf = nil, nil, nil, nil
}

// cells returns the matrix's cells, or panics once Agglomerative has
// consumed them: what they hold then are cluster distances, not items'.
func (m *Matrix) cells() []float32 {
	if m.consumed {
		panic("cluster: distance matrix read after Agglomerative consumed its cells")
	}
	return m.d
}

// At returns the distance between items i and j.
func (m *Matrix) At(i, j int) float64 {
	d := float64(m.cells()[i*m.n+j])
	runtime.KeepAlive(m)
	return d
}

// Medoid returns the member of the given item set with the minimum total
// distance to the other members (ties break to the member listed first),
// sequentially. Members are distinct; it panics on an empty set.
func (m *Matrix) Medoid(members []int) int {
	return m.MedoidWorkers(members, 1)
}

// MedoidWorkers is Medoid with an explicit worker bound. A member's
// distance sum is accumulated in member order, and the argmin scan is
// sequential, so the selection is bit-identical for every worker count.
//
// A cosine matrix reads its unit rows, not its cells, so it answers after
// Agglomerative too, and picks the member the cell scan picks, bit for bit
// (unitMedoid). Any other matrix scans its cells, fanning the members'
// sums out to the workers above medoidParallelThreshold members.
func (m *Matrix) MedoidWorkers(members []int, workers int) int {
	if len(members) == 0 {
		panic("cluster: Medoid of empty set")
	}
	defer runtime.KeepAlive(m)
	if m.rows != nil {
		return m.unitMedoid(members)
	}
	d := m.cells()
	if len(members) < medoidParallelThreshold {
		workers = 1
	}
	sums := par.Map(workers, len(members), func(k int) float64 {
		var sum float64
		row := d[members[k]*m.n:]
		for _, j := range members {
			sum += float64(row[j])
		}
		return sum
	})
	best, bestSum := members[0], math.Inf(1)
	for k, i := range members {
		if sums[k] < bestSum {
			best, bestSum = i, sums[k]
		}
	}
	return best
}

// medoidParallelThreshold is the member count above which a cell scan fans
// the per-member distance sums out to the worker pool; below it the
// goroutine overhead dwarfs the O(len(members)^2) scan.
const medoidParallelThreshold = 128

// medoidMargin is how far, in units of the estimate's error bound, a
// member's estimated sum may lie above the least estimate and still have
// its exact sum computed. Two is what the bound needs; a test sets it to 0
// to show that the estimate alone picks other members.
var medoidMargin = 2.0

// unitMedoid is the cell scan's medoid computed from the unit rows u_i:
// a cell is 1 − u_i·u_j to within 2⁻²³ (float64 products and sum, then one
// float32 rounding of the dot and one of the difference), so with S the
// members' sum vector, member i's sum over the other members is
//
//	(|C| − 1) − u_i·S + u_i·u_i
//
// to within ε = |C|·2⁻²², the float64 arithmetic of the estimate included.
// The scan's medoid has an estimate within 2ε of the least one, so only
// members there are candidates; each candidate's exact sum is then the
// scan's own, recomputed in member order from cells built by the kernel's
// per-cell rule (unitSum), and the least one, first on ties, is the scan's
// medoid. A candidate byte-identical to an earlier one is skipped: their
// cells agree term by term, or are all exactly 1 for zero rows, so its sum
// equals the earlier one's and can never be strictly less. A NaN estimate
// makes every member a candidate.
func (m *Matrix) unitMedoid(members []int) int {
	if len(members) <= 2 {
		return members[0] // one sum, or two of the same cell
	}
	sum := make(vector.Vec, len(m.rows[0]))
	for _, j := range members {
		vector.AddInPlace(sum, m.rows[j])
	}
	// Four members a step.
	c := float64(len(members))
	est := make([]float64, len(members))
	least := math.Inf(1)
	for k := 0; k < len(members); k += 4 {
		var a [4]vector.Vec
		for t := range a {
			a[t] = m.rows[members[min(k+t, len(members)-1)]]
		}
		d := vector.Dots(&a, &[4]vector.Vec{sum, sum, sum, sum})
		for t := 0; t < 4 && k+t < len(members); t++ {
			est[k+t] = c - 1 - d[t] + m.self[members[k+t]]
			least = min(least, est[k+t]) // NaN if any estimate is
		}
	}
	eps := c * 0x1p-22
	bound := least + float64(medoidMargin*eps) // NaN keeps every member
	var seen []vector.Vec                      // distinct candidate rows so far
	best, bestSum := members[0], math.Inf(1)
	for k, i := range members {
		row := m.rows[i]
		if est[k] > bound || repeatsRow(seen, row, m.self[i]) {
			continue
		}
		seen = append(seen, row)
		if s := m.unitSum(i, members); s < bestSum {
			best, bestSum = i, s
		}
	}
	return best
}

// unitSum is member i's distance sum as the cell scan adds it: in member
// order, each cell by the kernel's rule, the diagonal 0. Four cells a step.
func (m *Matrix) unitSum(i int, members []int) float64 {
	a := m.rows[i]
	var s float64
	for k := 0; k < len(members); k += 4 {
		var b [4]vector.Vec
		for t := range b {
			b[t] = m.rows[members[min(k+t, len(members)-1)]]
		}
		d := vector.Dots(&[4]vector.Vec{a, a, a, a}, &b)
		for t := 0; t < 4 && k+t < len(members); t++ {
			if members[k+t] != i {
				s += float64(vector.UnitDistance(d[t]))
			}
		}
	}
	return s
}

// repeatsRow reports whether row is byte-identical to one already seen and
// its exact sum therefore equal to that one's: its distance to a copy of
// itself (the cell of self, its dot with itself) is 0, or it is a zero row,
// at distance exactly 1 from every row.
func repeatsRow(seen []vector.Vec, row vector.Vec, self float64) bool {
	if vector.UnitDistance(self) != 0 && slices.ContainsFunc(row, func(x float64) bool { return x != 0 }) {
		return false
	}
	return slices.ContainsFunc(seen, func(r vector.Vec) bool {
		return slices.EqualFunc(r, row, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		})
	})
}
