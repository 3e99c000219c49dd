package vector

import (
	"math"
	"math/rand"
	"testing"
)

// randomVecs draws n dim-d vectors at wildly different scales, so nothing
// in the tests below depends on inputs being unit length.
func randomVecs(rng *rand.Rand, n, dim int) []Vec {
	out := make([]Vec, n)
	for i := range out {
		v := make(Vec, dim)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		for k := range v {
			v[k] = rng.NormFloat64() * scale
		}
		out[i] = v
	}
	return out
}

// rowDistances is CosineDistances for row i alone.
func rowDistances(u *UnitRows, i, lo int, out []float32) {
	var rows [PanelRows][]float32
	rows[i%PanelRows] = out
	u.CosineDistances(i/PanelRows, lo, &rows)
}

// unitCell returns the unit-row distance between rows i and j of u.
func unitCell(u *UnitRows, i, j int) float32 {
	out := make([]float32, u.n)
	rowDistances(u, i, j, out)
	return out[j]
}

// TestCosineDistanceContract checks the DistanceFunc contract on both
// cosine paths — the scalar function and the unit-row kernel: never
// negative, at most 2, symmetric, and exactly 0 between byte-identical
// vectors (the scalar path used to return an ulp either side of 0).
func TestCosineDistanceContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 3, 16, 127, 128} {
		vs := randomVecs(rng, 400, dim)
		// The second half repeats the first byte for byte.
		for i := 0; i < 200; i++ {
			vs[200+i] = Clone(vs[i])
		}
		u := NewUnitRows(vs)
		for i := 0; i < 200; i++ {
			a, b, dup := vs[i], vs[(i+1)%200], vs[200+i]
			if d := CosineDistance(a, a); d != 0 {
				t.Fatalf("dim %d: scalar d(a,a) = %g, want exactly 0", dim, d)
			}
			if d := CosineDistance(a, dup); d != 0 {
				t.Fatalf("dim %d: scalar d(a,copy) = %g, want exactly 0", dim, d)
			}
			if d := unitCell(u, i, 200+i); d != 0 {
				t.Fatalf("dim %d: unit-row d(a,copy) = %g, want exactly 0", dim, d)
			}
			ds, dr := CosineDistance(a, b), CosineDistance(b, a)
			if ds < 0 || ds > 2 || ds != dr {
				t.Fatalf("dim %d: scalar d(a,b) = %g, d(b,a) = %g", dim, ds, dr)
			}
			j := (i + 1) % 200
			du, dur := unitCell(u, i, j), unitCell(u, j, i)
			if du < 0 || du > 2 || du != dur {
				t.Fatalf("dim %d: unit-row d(a,b) = %g, d(b,a) = %g", dim, du, dur)
			}
			if math.Abs(float64(du)-ds) > 1e-6 {
				t.Fatalf("dim %d: unit-row %g vs scalar %g", dim, du, ds)
			}
		}
	}
}

// TestCosineClamped feeds near-parallel and near-antiparallel pairs, whose
// rounded ratio is where an unclamped cosine leaves [-1, 1].
func TestCosineClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		a := randomVecs(rng, 1, 1+rng.Intn(130))[0]
		b := Scale(a, (rng.Float64()+0.1)*float64(1-2*(i%2)))
		if c := Cosine(a, b); c < -1 || c > 1 {
			t.Fatalf("Cosine = %v outside [-1, 1]", c)
		}
	}
}

// TestUnitRowsZeroAndScale pins the arena contract: a zero-norm row is at
// distance 1 from everything, another zero row included, and scaling an
// input changes nothing.
func TestUnitRowsZeroAndScale(t *testing.T) {
	vs := []Vec{{0, 0, 0}, {1, 2, 3}, {0, 0, 0}, {100, 200, 300}, {-3, 0.5, 2}}
	u := NewUnitRows(vs)
	for _, j := range []int{1, 2, 3, 4} {
		if d := unitCell(u, 0, j); d != 1 {
			t.Errorf("d(zero, row %d) = %g, want 1", j, d)
		}
	}
	if d := unitCell(u, 1, 3); d != 0 {
		t.Errorf("d(v, 100v) = %g, want 0", d)
	}
	if a, b := unitCell(u, 1, 4), unitCell(u, 3, 4); a != b {
		t.Errorf("scaling changed a distance: %g vs %g", a, b)
	}
	NewUnitRows(nil).CosineDistances(0, 1, &[PanelRows][]float32{}) // no rows: nothing to do, nothing to index
}

// TestUnitRowsPositionIndependent checks that a cell is a pure function of
// its two rows: the same pair yields the same bits whichever tile slot it
// falls in (every start offset) and whichever other rows are present.
func TestUnitRowsPositionIndependent(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		vs := randomVecs(rng, 71, 127)
		u := NewUnitRows(vs)
		want := make([]float32, len(vs))
		rowDistances(u, 0, 1, want)
		for lo := 2; lo < len(vs); lo++ {
			got := make([]float32, len(vs))
			rowDistances(u, 0, lo, got)
			for j := lo; j < len(vs); j++ {
				if got[j] != want[j] {
					t.Fatalf("cell (0,%d) from offset %d = %g, from offset 1 = %g", j, lo, got[j], want[j])
				}
			}
		}
		for j := 1; j < len(vs); j++ {
			if got := unitCell(NewUnitRows([]Vec{vs[0], vs[j]}), 0, 1); got != want[j] {
				t.Fatalf("cell (0,%d) alone = %g, in the full set = %g", j, got, want[j])
			}
			// The other way round the row is broadcast from another slot
			// of its panel and the cell lands in another tile slot.
			if got := unitCell(u, j, 0); got != want[j] {
				t.Fatalf("cell (%d,0) = %g, cell (0,%d) = %g", j, got, j, want[j])
			}
		}
	})
}

func TestIsCosineDistance(t *testing.T) {
	byName, err := Distance("cosine")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := func(a, b Vec) float64 { return CosineDistance(a, b) }
	for _, tc := range []struct {
		name string
		d    DistanceFunc
		want bool
	}{
		{"CosineDistance", CosineDistance, true},
		{"registry cosine", byName, true},
		{"wrapper", wrapped, false},
		{"Euclidean", Euclidean, false},
		{"Manhattan", Manhattan, false},
		{"nil", nil, false},
	} {
		if got := IsCosineDistance(tc.d); got != tc.want {
			t.Errorf("IsCosineDistance(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDotRowsPureCells pins DotBlock's contract: a cell is a function of
// its query row and its stored row alone — the same bits wherever the stored
// row sits, whatever the block's length (so whatever tile slot or ragged
// tail it lands in) and whichever lane of whichever panel the query row
// takes — it agrees with Dot to rounding, and for normalised inputs it is
// the cosine the exact scan relies on.
func TestDotRowsPureCells(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for _, dim := range []int{1, 5, 128} {
			vs := randomVecs(rng, 12, dim)
			for i, v := range vs {
				vs[i] = Normalize(v)
			}
			a := vs[0]
			flat := func(rows []Vec) []float64 {
				var out []float64
				for _, r := range rows {
					out = append(out, r...)
				}
				return out
			}
			alone := make([]float64, len(vs))
			for j, v := range vs {
				NewQueryPanels([]Vec{a}).DotBlock(0, v, alone[j:j+1])
			}
			if alone[0] < 1-1e-12 || alone[0] > 1+1e-12 {
				t.Fatalf("dim %d: unit row dotted with itself = %v", dim, alone[0])
			}
			for n := 0; n <= len(vs); n++ {
				for lo := 0; lo+n <= len(vs); lo++ {
					// a is query row at, after at other rows.
					at := (n + lo) % 7
					q := NewQueryPanels(append(append([]Vec{}, vs[:at]...), a))
					w := make([]float64, q.Len()*n)
					q.DotBlock(at/4, flat(vs[lo:lo+n]), w)
					for j, got := range w[at*n:] {
						if got != alone[lo+j] {
							t.Fatalf("dim %d: row %d in block [%d,%d), query row %d = %v, alone %v", dim, lo+j, lo, lo+n, at, got, alone[lo+j])
						}
						if want := Cosine(a, vs[lo+j]); math.Abs(got-want) > 1e-12 {
							t.Fatalf("dim %d: DotBlock %v, Cosine %v", dim, got, want)
						}
					}
				}
			}
		}
	})
}
