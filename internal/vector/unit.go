package vector

import "reflect"

// panels is a set of equally long rows stored four to a panel, the layout
// the cosine kernel reads (dot.go): element k of rows 4p .. 4p+3 is
// a[(p*dim+k)*4:][:4]. Rows the last panel lacks, and any whole panels of
// padding behind it, are zero.
type panels struct {
	n, dim int
	a      []float64
}

func makePanels(n, dim, padding int) panels {
	return panels{n: n, dim: dim, a: make([]float64, ((n+PanelRows-1)/PanelRows+padding)*dim*PanelRows)}
}

// panel returns the count panels starting at panel p.
func (s *panels) panel(p, count int) []float64 {
	return s.a[p*s.dim*PanelRows : (p+count)*s.dim*PanelRows]
}

// row returns row i as the kernel reads it, element k at [4k], through the
// end of its panel. (The min is for dimension 0, whose panels are empty.)
func (s *panels) row(i int) []float64 {
	panel := s.panel(i/PanelRows, 1)
	return panel[min(i%PanelRows, len(panel)):]
}

// put stores v/norm as row i; len(v) is the panels' dimension.
func (s *panels) put(i int, v Vec, norm float64) {
	row := s.row(i)
	for k, x := range v {
		row[k*PanelRows] = x / norm
	}
}

// zero stores an all-zero row i.
func (s *panels) zero(i int) {
	row := s.row(i)
	for k := 0; k < s.dim; k++ {
		row[k*PanelRows] = 0
	}
}

// UnitRows is a set of vectors L2-normalised once into one arena of panels,
// so that cosine distance between any two of them is 1 - dot: the norms a
// pairwise CosineDistance recomputes for every pair are paid once per row. A
// zero-norm input stays an all-zero row; its dot with anything is 0 and its
// distance to anything is 1, as Cosine defines.
type UnitRows struct{ panels }

// NewUnitRows normalises items into a fresh arena. The inputs are not
// retained and need not be unit length (a fine-tuned model does not
// normalise). It panics on a dimension mismatch, like every kernel here.
func NewUnitRows(items []Vec) *UnitRows {
	if len(items) == 0 {
		return &UnitRows{}
	}
	return NewUnitRowsIn(items, make([]float64, UnitRowsLen(len(items), len(items[0]))))
}

// UnitRowsLen returns the float64s the arena of n rows of dimension dim
// takes: whole panels, plus the padding a matrix tile that starts in the
// last panel runs over (tilePanels-1 panels).
func UnitRowsLen(n, dim int) int {
	return ((n+PanelRows-1)/PanelRows + tilePanels - 1) * dim * PanelRows
}

// NewUnitRowsIn is NewUnitRows normalising into arena, at least
// UnitRowsLen(len(items), dim) long, whatever it held: every float64 the
// rows use is written, the zero rows and the padding included. The rows
// alias arena.
func NewUnitRowsIn(items []Vec, arena []float64) *UnitRows {
	if len(items) == 0 {
		return &UnitRows{}
	}
	n, dim := len(items), len(items[0])
	u := &UnitRows{panels{n: n, dim: dim, a: arena[:UnitRowsLen(n, dim)]}}
	clear(u.a[(n-1)/PanelRows*dim*PanelRows:]) // the last panel and the padding
	for i, v := range items {
		checkLen(items[0], v)
		if norm := Norm(v); norm != 0 {
			u.put(i, v, norm)
		} else {
			u.zero(i)
		}
	}
	return u
}

// CosineDistances writes the cosine distance between row i = 4p+r of panel
// p and every row j in [lo, n) to out[r][j], for each of the panel's rows
// that exists and has a non-nil out[r]. Each value is a pure function of
// the two rows: every cell comes out of the one kernel with an accumulator
// of its own summing in element order, so neither the tile a cell lands in,
// the worker that computes it, nor the subset of rows present can change it.
func (u *UnitRows) CosineDistances(p, lo int, out *[PanelRows][]float32) {
	if lo >= u.n {
		return
	}
	rows := u.panel(p, 1) // read in place, four rows at once
	var s [tileCells]float64
	for c := lo / PanelRows; c*PanelRows < u.n; c += tilePanels {
		// Cells before lo, and those of the zero rows past n, are computed
		// and dropped.
		dotTile(rows, u.panel(c, tilePanels), u.dim, &s)
		j0 := c * PanelRows
		for r, o := range out {
			if o == nil || p*PanelRows+r >= u.n {
				continue
			}
			for j := max(j0, lo); j < min(j0+tileCols, u.n); j++ {
				o[j] = UnitDistance(s[r*tileCols+j-j0])
			}
		}
	}
}

// Unpack rearranges the arena in place into row-major rows — row i's
// element k at rows[i*dim+k] — and returns them: the layout a per-row pass
// reads contiguously, once the matrix no longer needs the panels. Each
// panel is rearranged through the padding panel behind the last one, so
// nothing is allocated. u must not be used afterwards.
func (u *UnitRows) Unpack() (rows []float64) {
	dim, panels := u.dim, (u.n+PanelRows-1)/PanelRows
	if panels == 0 {
		u.a = nil
		return nil
	}
	scratch := u.panel(panels, 1)
	for p := 0; p < panels; p++ {
		panel := u.panel(p, 1)
		copy(scratch, panel)
		r0, r1, r2, r3 := panel[:dim], panel[dim:2*dim], panel[2*dim:3*dim], panel[3*dim:]
		for k := range r0 {
			x := (*[PanelRows]float64)(scratch[k*PanelRows:])
			r0[k], r1[k], r2[k], r3[k] = x[0], x[1], x[2], x[3]
		}
	}
	rows = u.a[:u.n*dim]
	u.a = nil
	return rows
}

// Dots returns Dot(a[t], b[t]) for t < 4, bit for bit: four one-accumulator
// sums in element order, interleaved so that the four additions of a step
// do not wait on each other. The eight rows are equally long; a row may
// appear more than once.
func Dots(a, b *[4]Vec) [4]float64 {
	n := len(a[0])
	a0, a1, a2, a3 := a[0][:n], a[1][:n], a[2][:n], a[3][:n]
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	var s0, s1, s2, s3 float64
	for k := 0; k < n; k++ {
		s0 += float64(a0[k] * b0[k])
		s1 += float64(a1[k] * b1[k])
		s2 += float64(a2[k] * b2[k])
		s3 += float64(a3[k] * b3[k])
	}
	return [4]float64{s0, s1, s2, s3}
}

// QueryPanels is the query side of the exact scan: a handful of rows, stored
// bit for bit as given in the kernel's panel layout, to be dotted with
// row-major blocks that stay as they were built.
type QueryPanels struct{ panels }

// NewQueryPanels copies rows into panels. Nothing is normalised: the scan's
// rows are unit or all-zero already and must keep their bits.
func NewQueryPanels(rows []Vec) *QueryPanels {
	if len(rows) == 0 {
		return &QueryPanels{}
	}
	q := &QueryPanels{makePanels(len(rows), len(rows[0]), 0)}
	for i, v := range rows {
		checkLen(rows[0], v)
		q.put(i, v, 1)
	}
	return q
}

// Len returns the number of rows.
func (q *QueryPanels) Len() int { return q.n }

// DotBlock writes to w[i*nc+j] the dot product of row i with row j of the
// row-major block (nc rows of the panels' dimension), for the four rows i
// of panel p that exist. For unit (or all-zero) rows that is their cosine
// similarity, up to rounding just outside [-1, 1]. Like CosineDistances,
// every cell comes out of the one kernel, so it is a pure function of its
// two rows: a row's position in the block or among the query's, the block's
// length and the calling worker cannot change it.
func (q *QueryPanels) DotBlock(p int, block []float64, w []float64) {
	dim := q.dim
	nc := len(block) / max(dim, 1)
	last := nc - 1
	// Past the end the tile re-reads the last stored row and the surplus
	// sums are dropped, as are those of the zero rows a short panel holds.
	col := func(j int) []float64 { j = min(j, last); return block[j*dim : (j+1)*dim] }
	panel, rows := q.panel(p, 1), min(PanelRows, q.n-p*PanelRows)
	var s [blockCells]float64
	for j := 0; j <= last; j += PanelRows {
		dotCols(panel, col(j), col(j+1), col(j+2), col(j+3), &s)
		for t := 0; t < PanelRows && j+t <= last; t++ {
			for r := 0; r < rows; r++ {
				w[(p*PanelRows+r)*nc+j+t] = s[t*PanelRows+r]
			}
		}
	}
}

// UnitDistance maps the dot product of two unit rows to a cosine distance
// in [0, 2]: the cell CosineDistances writes. The similarity is rounded to
// float32 — the precision the distance is stored at — before it is
// subtracted from 1: the dot of a normalised row with a byte-identical copy
// lands within a few float64 ulps of 1, rounds to exactly 1, and the
// distance between copies is exactly 0 rather than rounding noise. Given
// the Dot of two rows as Unpack returns them — Dot is the kernel's per-cell
// rule — it is the kernel's cell bit for bit on every body and
// architecture.
func UnitDistance(dot float64) float32 {
	d := 1 - float32(dot)
	if d < 0 {
		return 0
	}
	if d > 2 {
		return 2
	}
	return d
}

// IsCosineDistance reports whether d is CosineDistance itself — the one
// distance with a unit-row fast path. A wrapper around it, or any other
// function, is not.
func IsCosineDistance(d DistanceFunc) bool { return sameFunc(d, CosineDistance) }

// IsEuclidean reports whether d is Euclidean itself, whose pairs a distance
// matrix fills four at a time (SquaredEuclideans). A wrapper around it, or
// any other function, is not.
func IsEuclidean(d DistanceFunc) bool { return sameFunc(d, Euclidean) }

func sameFunc(d, f DistanceFunc) bool {
	return d != nil && reflect.ValueOf(d).Pointer() == reflect.ValueOf(f).Pointer()
}
