package vector

import "reflect"

// UnitRows is a set of vectors L2-normalised once into one contiguous
// row-major arena, so that cosine distance between any two of them is
// 1 - dot: the norms a pairwise CosineDistance recomputes for every pair
// are paid once per row. A zero-norm input stays an all-zero row; its dot
// with anything is 0 and its distance to anything is 1, as Cosine defines.
type UnitRows struct {
	n, dim int
	a      []float64
}

// NewUnitRows normalises items into a fresh arena. The inputs are not
// retained and need not be unit length (a fine-tuned model does not
// normalise). It panics on a dimension mismatch, like every kernel here.
func NewUnitRows(items []Vec) *UnitRows {
	u := &UnitRows{n: len(items)}
	if u.n == 0 {
		return u
	}
	u.dim = len(items[0])
	u.a = make([]float64, u.n*u.dim)
	for i, v := range items {
		checkLen(items[0], v)
		norm := Norm(v)
		if norm == 0 {
			continue
		}
		row := u.row(i)
		for k, x := range v {
			row[k] = x / norm
		}
	}
	return u
}

func (u *UnitRows) row(i int) []float64 { return u.a[i*u.dim : (i+1)*u.dim] }

// CosineDistances writes the cosine distance between row i and every row j
// in [lo, n) to out[j]. Each value is a pure function of the two rows:
// every cell, the ragged tail of a row included, comes out of the same
// 1x4 tile with one accumulator per cell summing in element order, so
// neither the tile a cell lands in, the worker that computes it, nor the
// subset of rows present can change it.
func (u *UnitRows) CosineDistances(i, lo int, out []float32) {
	a := u.row(i)
	last := u.n - 1
	for j := lo; j <= last; j += 4 {
		// Past the end the tile re-reads the last row and the surplus
		// sums are dropped.
		s := dot1x4(a, u.row(j),
			u.row(min(j+1, last)), u.row(min(j+2, last)), u.row(min(j+3, last)))
		for t := 0; t < 4 && j+t <= last; t++ {
			out[j+t] = unitDistance(s[t])
		}
	}
}

// DotRows writes the dot product of a with each of the len(out) rows of the
// row-major block rows (len(out) x len(a)) to out. For unit (or all-zero)
// rows that is their cosine similarity, up to rounding just outside
// [-1, 1], without the norms Cosine recomputes per pair. Like
// CosineDistances, every cell — the ragged tail included — comes out of
// the same 1x4 tile, so out[j] is a pure function of a and row j: a row's
// position in the block, the block's length and the calling worker cannot
// change it.
func DotRows(a Vec, rows, out []float64) {
	dim, last := len(a), len(out)-1
	row := func(j int) []float64 { j = min(j, last); return rows[j*dim : (j+1)*dim] }
	for j := 0; j <= last; j += 4 {
		s := dot1x4(a, row(j), row(j+1), row(j+2), row(j+3))
		copy(out[j:], s[:])
	}
}

// dot1x4 is the one cosine kernel: a against four rows at once, so each
// element of a is loaded once per four multiply-adds and the four sums
// form independent dependency chains.
func dot1x4(a, b0, b1, b2, b3 []float64) [4]float64 {
	var s0, s1, s2, s3 float64
	// Reslicing to len(a) lets the compiler drop the bounds checks below.
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for k, x := range a {
		s0 += x * b0[k]
		s1 += x * b1[k]
		s2 += x * b2[k]
		s3 += x * b3[k]
	}
	return [4]float64{s0, s1, s2, s3}
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
