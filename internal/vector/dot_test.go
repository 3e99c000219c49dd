package vector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// eachKernel runs f under the body this process selected and, when that is
// not the generic one, again with the generic body forced.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	t.Run(CosineKernel(), f)
	if !useAVX2 {
		return
	}
	defer ForceGenericKernel()()
	t.Run(CosineKernel(), f)
}

// naiveDot is the kernel's specification, literally: one accumulator, the
// product rounded before it is added, element order. a is read at stride
// sa and b at stride sb, so it reads panels and plain rows alike.
func naiveDot(a []float64, sa int, b []float64, sb, dim int) float64 {
	s := 0.0
	for k := 0; k < dim; k++ {
		s += float64(a[k*sa] * b[k*sb])
	}
	return s
}

// hostileVec draws a NaN-free vector whose elements span ±1e-160 to ±1e150:
// products underflow to subnormals and reach 1e300 without overflowing, so
// a reordered or fused sum shows in the bits.
func hostileVec(rng *rand.Rand, dim int) Vec {
	v := make(Vec, dim)
	for k := range v {
		scale := []float64{1e-160, 1e-3, 1, 1, 1e3, 1e150}[rng.Intn(6)]
		v[k] = (rng.Float64()*2 - 1) * scale
	}
	return v
}

// checkTiles compares, bitwise, both bodies of both tiles with the naive
// loop on the given rows: the first four rows against every pair of panels
// through the matrix tile (rows past the end are zero, as in an arena), and
// up to four stored rows against up to four query rows through the scan
// tile.
func checkTiles(t testing.TB, rows []Vec) {
	dim := len(rows[0])
	arena := makePanels(len(rows), dim, tilePanels)
	for i, v := range rows {
		arena.put(i, v, 1)
	}
	row := func(i int) Vec {
		if i < len(rows) {
			return rows[i]
		}
		return make(Vec, dim)
	}
	for c := 0; c*PanelRows < len(rows); c++ {
		var want, got [tileCells]float64
		for cell := range want {
			want[cell] = naiveDot(row(cell/tileCols), 1, row(c*PanelRows+cell%tileCols), 1, dim)
		}
		for name, body := range map[string]func(a, b []float64, dim int, out *[tileCells]float64){
			CosineKernel(): dotTile, "generic": dotTileGeneric,
		} {
			body(arena.panel(0, 1), arena.panel(c, tilePanels), dim, &got)
			for cell := range want {
				if math.Float64bits(got[cell]) != math.Float64bits(want[cell]) {
					t.Fatalf("matrix tile, %s body, dim %d, column panel %d, cell %d: %v (%#x), naive %v (%#x)",
						name, dim, c, cell, got[cell], math.Float64bits(got[cell]), want[cell], math.Float64bits(want[cell]))
				}
			}
		}
	}
	stored := func(j int) []float64 { return rows[min(j, len(rows)-1)] }
	for name, body := range map[string]func(q, c0, c1, c2, c3 []float64, out *[blockCells]float64){
		CosineKernel(): dotCols, "generic": dotColsGeneric,
	} {
		var got [blockCells]float64
		body(arena.panel(0, 1), stored(0), stored(1), stored(2), stored(3), &got)
		for c := range got {
			want := naiveDot(stored(c/PanelRows), 1, arena.row(c%PanelRows), PanelRows, dim)
			if math.Float64bits(got[c]) != math.Float64bits(want) {
				t.Fatalf("scan tile, %s body, dim %d, cell %d: %v (%#x), naive %v (%#x)",
					name, dim, c, got[c], math.Float64bits(got[c]), want, math.Float64bits(want))
			}
		}
	}
}

// awkwardUnitRows draws n rows the way the pipeline meets them: random
// directions at wildly different scales, every seventh all-zero, and every
// fifth a byte-identical copy of an earlier one.
func awkwardUnitRows(rng *rand.Rand, n, dim int) []Vec {
	vs := randomVecs(rng, n, dim)
	for i := range vs {
		switch {
		case i%7 == 3:
			vs[i] = make(Vec, dim)
		case i%5 == 4:
			vs[i] = Clone(vs[i/2])
		}
	}
	return vs
}

// TestKernelsMatchReference compares the selected body, the generic body
// and the naive one-accumulator loop bit for bit: the raw tiles on hostile
// magnitudes, then both entry points over every ragged shape — 0 to 70 rows
// for the matrix, four rows a call from every start, most not a multiple of
// four, 1 to 13 stored rows by 1 to 9 query rows for the scan — on rows with
// zeros and byte-identical copies among them.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dims := []int{0, 1, 3, 127, 128, 129, 768}
	for _, dim := range dims {
		for _, n := range []int{1, 2, 5, 11, 32, 33} {
			rows := make([]Vec, n)
			for i := range rows {
				rows[i] = hostileVec(rng, dim)
			}
			if n > 2 {
				rows[2] = Clone(rows[0])
				rows[n-1] = make(Vec, dim)
			}
			checkTiles(t, rows)
		}
	}
	eachKernel(t, func(t *testing.T) { testEntryPoints(t, dims) })
}

// testEntryPoints is the ragged-shape half of TestKernelsMatchReference,
// under whichever body is selected when it runs.
func testEntryPoints(t *testing.T, dims []int) {
	rng := rand.New(rand.NewSource(29))
	for _, dim := range dims {
		const maxRows = 70
		vs := awkwardUnitRows(rng, maxRows, dim)
		full := NewUnitRows(vs)
		var want [maxRows][maxRows]float32
		for i := range want {
			for j := range want[i] {
				want[i][j] = unitDistance(naiveDot(full.row(i), PanelRows, full.row(j), PanelRows, dim))
			}
			if dup := i / 2; i%5 == 4 && slices.Equal(vs[i], vs[dup]) && Norm(vs[i]) != 0 && want[i][dup] != 0 {
				t.Fatalf("dim %d: naive distance between row %d and its copy %d is %g, want exactly 0", dim, i, dup, want[i][dup])
			}
		}
		for n := 0; n <= maxRows; n++ {
			u := NewUnitRows(vs[:n])
			for p := 0; p*PanelRows < n; p++ {
				for _, lo := range []int{0, p*PanelRows + 1, n - 1} {
					var out [PanelRows][]float32
					for r := range out {
						if (p+r)%5 == 4 {
							continue // a row the caller does not ask for
						}
						out[r] = make([]float32, n)
						for j := range out[r] {
							out[r][j] = -1
						}
					}
					u.CosineDistances(p, lo, &out)
					for r, got := range out {
						i := p*PanelRows + r
						for j := range got {
							if (i >= n || j < lo) && got[j] != -1 {
								t.Fatalf("dim %d, %d rows: CosineDistances(%d, %d) wrote cell (%d,%d)", dim, n, p, lo, i, j)
							}
							if i < n && j >= lo && math.Float32bits(got[j]) != math.Float32bits(want[i][j]) {
								t.Fatalf("dim %d, %d rows: cell (%d,%d) from %d = %g, naive %g", dim, n, i, j, lo, got[j], want[i][j])
							}
						}
					}
				}
			}
		}

		var unit []Vec
		for _, v := range vs[:22] {
			unit = append(unit, Normalize(v))
		}
		for nc := 1; nc <= 13; nc++ {
			var block []float64
			for _, v := range unit[9 : 9+nc] {
				block = append(block, v...)
			}
			for nq := 1; nq <= 9; nq++ {
				q := NewQueryPanels(unit[:nq])
				w := make([]float64, nq*nc)
				for p := 0; p*PanelRows < nq; p++ {
					q.DotBlock(p, block, w)
				}
				for i := 0; i < nq; i++ {
					for j := 0; j < nc; j++ {
						want := naiveDot(unit[i], 1, unit[9+j], 1, dim)
						if got := w[i*nc+j]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("dim %d, %d query rows x %d stored: cell (%d,%d) = %v, naive %v", dim, nq, nc, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzDotKernels feeds both tiles arbitrary finite rows — the fuzzer owns
// the dimension, the row count and every bit of every element — and
// requires the selected body, the generic body and the naive loop to agree
// bitwise.
func FuzzDotKernels(f *testing.F) {
	seed := func(dim uint8, xs ...float64) {
		raw := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(x))
		}
		f.Add(dim, raw)
	}
	seed(1, 1, -1)
	seed(2, 1e150, 1e150, -1e150, 1e150, 3, 5e-324)
	seed(3, 0.1, 0.2, 0.3, 0.1, 0.2, 0.3, math.Copysign(0, -1), 1e-160, -1e-160)
	f.Fuzz(func(t *testing.T, dim uint8, raw []byte) {
		d := int(dim)%130 + 1
		var rows []Vec
		for len(raw) >= 8*d && len(rows) < 2*tileCols+1 {
			v := make(Vec, d)
			for k := range v {
				x := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
				// Keep it finite and NaN-free: |x| <= 1e150 cannot overflow a sum.
				if math.IsNaN(x) || math.Abs(x) > 1e150 {
					x = math.Copysign(1e150, x)
				}
				v[k] = x
			}
			rows, raw = append(rows, v), raw[8*d:]
		}
		if len(rows) > 0 {
			checkTiles(t, rows)
		}
	})
}

// BenchmarkDotKernels times each tile through its entry point at the served
// dimension — a 1000-row upper triangle, four rows a call, and a 12-row block against 5 query
// rows (two panels, the second mostly padding) — and reports the
// multiply-adds it retires per second, padding included. Without fused
// multiply-add a core's ceiling is lanes x (add ports + multiply ports) / 2
// a cycle: 4 on the AVX2 body where adds and multiplies share two ports, 1
// on the generic one.
func BenchmarkDotKernels(b *testing.B) {
	const dim = 128
	rng := rand.New(rand.NewSource(1))
	for _, avx2 := range []bool{true, false} {
		if avx2 && !useAVX2 {
			continue
		}
		saved := useAVX2
		useAVX2 = avx2
		b.Run("matrix/"+CosineKernel(), func(b *testing.B) {
			u := NewUnitRows(randomVecs(rng, 1000, dim))
			var out [PanelRows][]float32
			for r := range out {
				out[r] = make([]float32, u.n)
			}
			np := (u.n + PanelRows - 1) / PanelRows
			tiles := 0
			for p := 0; p < np; p++ {
				tiles += (np - p + tilePanels - 1) / tilePanels
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for p := 0; p < np; p++ {
					u.CosineDistances(p, p*PanelRows, &out)
				}
			}
			b.ReportMetric(float64(b.N)*float64(tiles*tileCells*dim)/b.Elapsed().Seconds()/1e6, "MMAC/s")
		})
		b.Run("scan/"+CosineKernel(), func(b *testing.B) {
			rows := randomVecs(rng, 12+5, dim)
			var block []float64
			for _, v := range rows[:12] {
				block = append(block, v...)
			}
			q := NewQueryPanels(rows[12:])
			w := make([]float64, q.Len()*12)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				q.DotBlock(0, block, w)
				q.DotBlock(1, block, w)
			}
			b.ReportMetric(float64(b.N)*float64(2*3*blockCells*dim)/b.Elapsed().Seconds()/1e6, "MMAC/s")
		})
		useAVX2 = saved
	}
}
