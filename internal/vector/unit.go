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
	// A matrix tile that starts in the last panel runs tilePanels-1 past it.
	u := &UnitRows{makePanels(len(items), len(items[0]), tilePanels-1)}
	for i, v := range items {
		checkLen(items[0], v)
		if norm := Norm(v); norm != 0 {
			u.put(i, v, norm)
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
				o[j] = unitDistance(s[r*tileCols+j-j0])
			}
		}
	}
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

// unitDistance maps the dot product of two unit rows to a cosine distance
// in [0, 2]. The similarity is rounded to float32 — the precision the
// distance is stored at — before it is subtracted from 1: the dot of a
// normalised row with a byte-identical copy lands within a few float64 ulps
// of 1, rounds to exactly 1, and the distance between copies is exactly 0
// rather than rounding noise.
func unitDistance(dot float64) float32 {
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
func IsCosineDistance(d DistanceFunc) bool {
	return d != nil && reflect.ValueOf(d).Pointer() == reflect.ValueOf(CosineDistance).Pointer()
}
