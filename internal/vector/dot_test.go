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

// checkTiles compares, bitwise, the selected body of both tiles with the
// naive loop on the given rows: the first four rows against every pair of
// panels through the matrix tile (rows past the end are zero, as in an
// arena), and up to four stored rows against up to four query rows through
// the scan tile.
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
		dotTile(arena.panel(0, 1), arena.panel(c, tilePanels), dim, &got)
		for cell := range want {
			if math.Float64bits(got[cell]) != math.Float64bits(want[cell]) {
				t.Fatalf("matrix tile, %s body, dim %d, column panel %d, cell %d: %v (%#x), naive %v (%#x)",
					CosineKernel(), dim, c, cell, got[cell], math.Float64bits(got[cell]), want[cell], math.Float64bits(want[cell]))
			}
		}
	}
	stored := func(j int) []float64 { return rows[min(j, len(rows)-1)] }
	var got [blockCells]float64
	dotCols(arena.panel(0, 1), stored(0), stored(1), stored(2), stored(3), &got)
	for c := range got {
		want := naiveDot(stored(c/PanelRows), 1, arena.row(c%PanelRows), PanelRows, dim)
		if math.Float64bits(got[c]) != math.Float64bits(want) {
			t.Fatalf("scan tile, %s body, dim %d, cell %d: %v (%#x), naive %v (%#x)",
				CosineKernel(), dim, c, got[c], math.Float64bits(got[c]), want, math.Float64bits(want))
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

// sweepCosine is the cosine family's sweep: the raw tiles on hostile
// magnitudes, both bodies beside the naive one-accumulator loop, then the
// entry points over every ragged shape — 0 to 70 rows for the matrix, four
// rows a call from every start, most not a multiple of four, 1 to 13 stored
// rows by 1 to 9 query rows for the scan — on rows with zeros and
// byte-identical copies among them.
func sweepCosine(t *testing.T, rng *rand.Rand) {
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

// fuzzCosine gives the fuzzer the dimension and every bit of every element
// of up to seventeen rows, kept finite, for checkTiles.
func fuzzCosine(t *testing.T, in fuzzInput) {
	d := int(in.u8())%130 + 1
	var rows []Vec
	for len(in) >= 8*d && len(rows) < 2*tileCols+1 {
		v := make(Vec, d)
		for k := range v {
			v[k] = finite(in.f64())
		}
		rows = append(rows, v)
	}
	if len(rows) > 0 {
		checkTiles(t, rows)
	}
}

// finite maps NaN and every |x| > 1e150 to ±1e150, where no sum of products
// overflows.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.Abs(x) > 1e150 {
		return math.Copysign(1e150, x)
	}
	return x
}

// kernelFamily is one row of the kernel-conformance table: one kernel
// family under the useAVX2 switch. A family's naive transcription is its
// specification; sweep draws the family's hostile inputs from rng (seeded
// with seed) and holds the body selected when it runs to the naive one,
// bitwise, on each, and fuzz does the same on one input decoded from fuzzer
// bytes, of which seeds are the fuzzer's starting corpus.
type kernelFamily struct {
	name  string
	seed  int64
	sweep func(t *testing.T, rng *rand.Rand)
	fuzz  func(t *testing.T, in fuzzInput)
	seeds [][]byte
}

// kernelFamilies is the kernel-conformance table.
var kernelFamilies = []kernelFamily{
	{"cosine", 23, sweepCosine, fuzzCosine, cosineSeeds()},
	{"encode", 31, sweepEncode, fuzzEncode, encodeSeeds()},
	{"cluster", 37, sweepCluster, fuzzCluster, clusterSeeds()},
	{"code", 43, sweepCode, fuzzCode, codeSeeds()},
}

// checkFamily runs the named row's sweep under the selected body and, on a
// machine that selected AVX2, the generic one.
func checkFamily(t *testing.T, name string) {
	for _, fam := range kernelFamilies {
		if fam.name == name {
			eachKernel(t, func(t *testing.T) { fam.sweep(t, rand.New(rand.NewSource(fam.seed))) })
			return
		}
	}
	t.Fatalf("no kernel family %q", name)
}

func TestKernelsMatchReference(t *testing.T)        { checkFamily(t, "cosine") }
func TestEncodeKernelsMatchReference(t *testing.T)  { checkFamily(t, "encode") }
func TestClusterKernelsMatchReference(t *testing.T) { checkFamily(t, "cluster") }
func TestCodeKernelsMatchReference(t *testing.T)    { checkFamily(t, "code") }

// fuzzInput hands out a fuzzer's bytes field by field; a field past the
// end reads as zeros, and what is left is the rows' raw bits.
type fuzzInput []byte

func (in *fuzzInput) bytes(n int) []byte {
	out := make([]byte, n)
	*in = (*in)[copy(out, *in):]
	return out
}

func (in *fuzzInput) u8() uint8    { return in.bytes(1)[0] }
func (in *fuzzInput) u64() uint64  { return binary.LittleEndian.Uint64(in.bytes(8)) }
func (in *fuzzInput) f64() float64 { return math.Float64frombits(in.u64()) }

func floatBytes(xs ...float64) (raw []byte) {
	for _, x := range xs {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
	}
	return raw
}

// cosineSeeds: dimension, then the rows.
func cosineSeeds() [][]byte {
	return [][]byte{
		append([]byte{1}, floatBytes(1, -1)...),
		append([]byte{2}, floatBytes(1e150, 1e150, -1e150, 1e150, 3, 5e-324)...),
		append([]byte{3}, floatBytes(0.1, 0.2, 0.3, 0.1, 0.2, 0.3, math.Copysign(0, -1), 1e-160, -1e-160)...),
	}
}

// encodeSeeds: seed, dimension, weight and norm, then both vectors.
func encodeSeeds() [][]byte {
	encode := func(seed uint64, dim uint8, s, n float64, raw string) []byte {
		b := append(binary.LittleEndian.AppendUint64(nil, seed), dim)
		return append(append(b, floatBytes(s, n)...), raw...)
	}
	return [][]byte{
		encode(0, 4, 1, 1, ""),
		encode(^uint64(0), 129, 0.5, 1e-300, "0123456789abcdef0123456789abcdef"),
		encode(7, 7, 1e300, 5e-324, "\x00\x00\x00\x00\x00\x00\xf0\x7f"),
	}
}

// clusterSeeds: length, offset, the two cluster sizes and the mask, then the
// rows.
func clusterSeeds() [][]byte {
	cluster := func(n, off, sa, sb uint8, mask uint64, raw string) []byte {
		return append(binary.LittleEndian.AppendUint64([]byte{n, off, sa, sb}, mask), raw...)
	}
	return [][]byte{
		cluster(9, 1, 1, 1, 0, ""),
		cluster(17, 3, 5, 64, 0xaaaa, "00\x80\x7f01\xc0\x7f\x00\x00\x80\x7f\x00\x00\x00\x80"),
		cluster(70, 7, 2, 3, ^uint64(1), "0123456789abcdef0123456789abcdef"),
	}
}

// fuzzBoth runs fam's fuzz on raw under the selected body and again under
// the generic one.
func fuzzBoth(t *testing.T, fam kernelFamily, raw []byte) {
	fam.fuzz(t, fuzzInput(raw))
	if useAVX2 {
		defer ForceGenericKernel()()
		fam.fuzz(t, fuzzInput(raw))
	}
}

// FuzzKernels is the fuzzer of the whole kernel-conformance table, the one
// CI gives a budget: the first byte picks the family, the rest is that
// family's input.
func FuzzKernels(f *testing.F) {
	for i, fam := range kernelFamilies {
		for _, s := range fam.seeds {
			f.Add(append([]byte{byte(i)}, s...))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := fuzzInput(raw)
		fuzzBoth(t, kernelFamilies[int(in.u8())%len(kernelFamilies)], in)
	})
}

// fuzzFamily fuzzes one row of the table alone, from its own seeds.
func fuzzFamily(f *testing.F, row int) {
	fam := kernelFamilies[row]
	for _, s := range fam.seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzBoth(t, fam, raw) })
}

func FuzzDotKernels(f *testing.F)     { fuzzFamily(f, 0) }
func FuzzEncodeKernels(f *testing.F)  { fuzzFamily(f, 1) }
func FuzzClusterKernels(f *testing.F) { fuzzFamily(f, 2) }
func FuzzCodeKernels(f *testing.F)    { fuzzFamily(f, 3) }

// BenchmarkDotKernels times each tile through its entry point at the served
// dimension — a 1000-row upper triangle, four rows a call, and a 12-row block against 5 query
// rows (two panels, the second mostly padding), as float64s (scan) and as
// codes (code, through RowBounds, its bounds included) — and reports the
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
		b.Run("code/"+CosineKernel(), func(b *testing.B) {
			rows := randomVecs(rng, 12+5, dim)
			var block []float64
			for _, v := range rows[:12] {
				block = append(block, v...)
			}
			c := NewCodeBlock(12, dim)
			c.Quantize(block, dim)
			q := NewQueryCodes(rows[12:])
			var out [PanelRows]float64
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				q.RowBounds(0, c, &out)
				q.RowBounds(1, c, &out)
			}
			b.ReportMetric(float64(b.N)*float64(2*12*PanelRows*dim)/b.Elapsed().Seconds()/1e6, "MMAC/s")
		})
		useAVX2 = saved
	}
}
