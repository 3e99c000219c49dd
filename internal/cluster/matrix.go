// Package cluster implements the hierarchical clustering substrate used by
// three parts of the reproduction: holistic column alignment (paper §3.3),
// DUST's candidate-tuple selection (§5.2), and the CLT baseline (§6.4.2).
// It clusters with average linkage (the paper's rule, §6.2.1) via the
// nearest-neighbour-chain algorithm, under cannot-link constraints (no two
// columns of the same table may align), and picks medoids.
//
// Two entry points cluster: (*Matrix).Partition cuts a matrix's items into
// k clusters (Algorithm 2, CLT), and BestPartition builds the matrix of its
// items itself and keeps the cut with the best silhouette coefficient
// (alignment). Both return only the clusters; every working array comes
// from a per-processor scratch that never leaves the call. Partition
// clusters in the matrix's own cells and consumes them, unless its medoids
// read them (a matrix of any distance but cosine), when it clusters a copy
// in its scratch: a cosine matrix keeps its unit rows, and its medoid reads
// them rather than the cells, so DUST's cluster step holds one n² buffer.
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
// holds nothing on the collected heap. Partition consumes a cosine
// matrix's cells: afterwards At and Partition panic, and Medoid reads the
// unit rows.
//
// The region is outside the collected heap (package region): every method
// that reads the cells or the unit rows ends with runtime.KeepAlive(m), and
// a matrix dropped unreleased gives its region back from the finalizer.
type Matrix struct {
	n        int
	d        []float32
	unit     []float64      // cosine matrices only: the unit rows, row-major, dim each
	dim      int            // cosine matrices only: the rows' dimension
	buf      *region.Region // cosine matrices only: the region d and unit live in
	consumed bool           // clustering has run in d
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
// and agrees with the generic loop to float32 rounding. When it is
// vector.Euclidean itself the cells are filled four a step
// (vector.SquaredEuclideans), bit for bit the generic loop's. Every other
// distance takes the generic per-pair loop.
func NewMatrixWorkers(items []vector.Vec, dist vector.DistanceFunc, workers int) *Matrix {
	if vector.IsCosineDistance(dist) {
		return newCosineMatrix(items, workers)
	}
	m := &Matrix{n: len(items), d: make([]float32, len(items)*len(items))}
	fillCells(items, dist, m.d, workers)
	return m
}

// fillCells writes the distance of every pair of items, and a zero
// diagonal, into the n×n cells d, whatever they held: four Euclidean cells
// a step, any other distance one pair a call. The worker owning row
// min(i, j) writes cell (i, j) and its mirror, so the cells are the same
// for every worker count, and the same as NewMatrixFromFuncWorkers'.
func fillCells(items []vector.Vec, dist vector.DistanceFunc, d []float32, workers int) {
	n := len(items)
	if !vector.IsEuclidean(dist) {
		fillFunc(n, func(i, j int) float64 { return dist(items[i], items[j]) }, d, workers)
		return
	}
	forPairedRows(workers, n, func(i int) {
		d[i*n+i] = 0
		for j := i + 1; j < n; j += 4 {
			var b [4]vector.Vec
			for t := range b {
				b[t] = items[min(j+t, n-1)] // the last row again past the end, dropped
			}
			sq := vector.SquaredEuclideans(items[i], &b)
			for t := 0; t < 4 && j+t < n; t++ {
				v := float32(math.Sqrt(sq[t])) // vector.Euclidean's value
				d[i*n+j+t] = v
				d[(j+t)*n+i] = v
			}
		}
	})
}

// fillFunc writes f(i, j) for every pair i < j into cells (i, j) and
// (j, i) of the n×n cells d, and a zero diagonal.
func fillFunc(n int, f func(i, j int) float64, d []float32, workers int) {
	forPairedRows(workers, n, func(i int) {
		d[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			v := float32(f(i, j))
			d[i*n+j] = v
			d[j*n+i] = v
		}
	})
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
	m.unit, m.dim = u.Unpack(), dim
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
	fillFunc(n, f, m.d, workers)
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

// medoidReadsCells reports whether Medoid reads m's cells — true unless m
// is a cosine matrix — so that Partition must cluster a copy of them.
func (m *Matrix) medoidReadsCells() bool { return m.unit == nil }

// Release hands a cosine matrix's region — its cells, clustered or not,
// and its unit rows — back to the free list; a matrix built from a
// function leaves its cells to the collector. The matrix must not be used
// afterwards; a second Release does nothing.
func (m *Matrix) Release() {
	if m.buf != nil {
		m.buf.Release()
	}
	m.d, m.unit, m.buf = nil, nil, nil
}

// Partition clusters m's items bottom-up with average linkage (UPGMA, the
// paper's configuration, §6.2.1, by the nearest-neighbour chain) and cuts
// the dendrogram at k clusters — more if the cannot-link constraints stop
// the merges first, all singletons if k >= Len. It returns each cluster's
// items in ascending order, the clusters in the order of their least
// items, in fresh memory; nothing else of the run is kept.
//
// It clusters in m's own cells and consumes them (At and a second
// Partition panic afterwards) unless Medoid reads them, as for any
// distance but cosine: then it clusters a copy in its scratch and m stays
// whole.
func (m *Matrix) Partition(k int, opts Options) [][]int {
	defer runtime.KeepAlive(m) // the cells may live in m's region
	s := takeScratch()
	defer s.release()
	d := m.cells()
	if m.medoidReadsCells() {
		d = append(s.f32.take(len(d))[:0], d...)
	} else {
		m.consumed = true
	}
	labels, actual := s.cut(s.agglomerate(d, m.n, opts), k)
	return s.groups(labels, actual)
}

// BestPartition clusters items like Partition, over the cells
// NewMatrixFromFuncWorkers would fill from dist (Euclidean four cells a
// step, as NewMatrixWorkers does), and returns the
// clusters of the cut with between minK and maxK clusters whose mean
// silhouette coefficient is best (Rousseeuw 1987, the quality measure the
// paper uses to pick the number of column clusters, §3.3 and §6.2.1), and
// that score; a tie goes to the fewest clusters. Items in singleton
// clusters contribute 0, matching scikit-learn, so a score is in [-1, 1].
// If no cut in range has a valid score, the cut at minK is returned with a
// NaN score. The matrix, the copy it is clustered in and every other
// working array are scratch: only the clusters are allocated.
func BestPartition(items []vector.Vec, dist vector.DistanceFunc, minK, maxK int, opts Options, workers int) ([][]int, float64) {
	s := takeScratch()
	defer s.release()
	n := len(items)
	cells := s.f32.take(n * n)
	fillCells(items, dist, cells, workers)
	work := append(s.f32.take(n * n)[:0], cells...)
	labels, k, score := s.bestCut(cells, s.agglomerate(work, n, opts), minK, maxK)
	return s.groups(labels, k), score
}

// cells returns the matrix's cells, or panics once Partition has consumed
// them: what they hold then are cluster distances, not items'.
func (m *Matrix) cells() []float32 {
	if m.consumed {
		panic("cluster: distance matrix read after Partition consumed its cells")
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
// Partition too, and picks the member the cell scan picks, bit for bit
// (unitMedoid). Any other matrix scans its cells, fanning the members'
// sums out to the workers above medoidParallelThreshold members.
func (m *Matrix) MedoidWorkers(members []int, workers int) int {
	if len(members) == 0 {
		panic("cluster: Medoid of empty set")
	}
	defer runtime.KeepAlive(m)
	if !m.medoidReadsCells() {
		return m.unitMedoid(members)
	}
	d := m.cells()
	if len(members) < medoidParallelThreshold {
		workers = 1
	}
	s := takeScratch()
	defer s.release()
	sums := s.f64.take(len(members))
	if workers == 1 {
		for k, i := range members {
			sums[k] = cellSum(d[i*m.n:], members)
		}
	} else {
		par.For(workers, len(members), func(k int) { sums[k] = cellSum(d[members[k]*m.n:], members) })
	}
	best, bestSum := members[0], math.Inf(1)
	for k, i := range members {
		if sums[k] < bestSum {
			best, bestSum = i, sums[k]
		}
	}
	return best
}

// cellSum is a member's distance sum over its row of cells, in member
// order.
func cellSum(row []float32, members []int) float64 {
	var sum float64
	for _, j := range members {
		sum += float64(row[j])
	}
	return sum
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

// row returns unit row i of a cosine matrix.
func (m *Matrix) row(i int) vector.Vec { return m.unit[i*m.dim : (i+1)*m.dim] }

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
// makes every member a candidate. The sums, estimates and candidates are
// scratch.
func (m *Matrix) unitMedoid(members []int) int {
	if len(members) <= 2 {
		return members[0] // one sum, or two of the same cell
	}
	s := takeScratch()
	defer s.release()
	sum := s.f64.take(m.dim)
	clear(sum)
	for _, j := range members {
		vector.AddInPlace(sum, m.row(j))
	}
	// Four members a step: each one's dot with S and with itself.
	c := float64(len(members))
	est, self := s.f64.take(len(members)), s.f64.take(len(members))
	sums := &[4]vector.Vec{sum, sum, sum, sum}
	least := math.Inf(1)
	for k := 0; k < len(members); k += 4 {
		var a [4]vector.Vec
		for t := range a {
			a[t] = m.row(members[min(k+t, len(members)-1)])
		}
		d, dd := vector.Dots(&a, sums), vector.Dots(&a, &a)
		for t := 0; t < 4 && k+t < len(members); t++ {
			self[k+t] = dd[t]
			est[k+t] = c - 1 - d[t] + dd[t]
			least = min(least, est[k+t]) // NaN if any estimate is
		}
	}
	eps := c * 0x1p-22
	bound := least + float64(medoidMargin*eps) // NaN keeps every member
	seen := s.ints.take(len(members))[:0]      // items of the distinct candidate rows so far
	best, bestSum := members[0], math.Inf(1)
	for k, i := range members {
		if est[k] > bound || m.repeatsRow(seen, i, self[k]) {
			continue
		}
		seen = append(seen, i)
		if total := m.unitSum(i, members); total < bestSum {
			best, bestSum = i, total
		}
	}
	return best
}

// unitSum is member i's distance sum as the cell scan adds it: in member
// order, each cell by the kernel's rule, the diagonal 0. Four cells a step.
func (m *Matrix) unitSum(i int, members []int) float64 {
	a := m.row(i)
	var s float64
	for k := 0; k < len(members); k += 4 {
		var b [4]vector.Vec
		for t := range b {
			b[t] = m.row(members[min(k+t, len(members)-1)])
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

// repeatsRow reports whether item i's row, whose dot with itself is self,
// is byte-identical to the row of an item seen and its exact sum therefore
// equal to that one's: its distance to a copy of itself (the cell of self)
// is 0, or it is a zero row, at distance exactly 1 from every row.
func (m *Matrix) repeatsRow(seen []int, i int, self float64) bool {
	row := m.row(i)
	if vector.UnitDistance(self) != 0 && slices.ContainsFunc(row, func(x float64) bool { return x != 0 }) {
		return false
	}
	return slices.ContainsFunc(seen, func(j int) bool {
		return slices.EqualFunc(m.row(j), row, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		})
	})
}
