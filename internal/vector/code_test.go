package vector

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// naiveCodeDot is one dot of the code kernel's specification, in int64 so
// that an overflow of the kernel's int32 would show.
func naiveCodeDot(q []int16, c []int8) int64 {
	var s int64
	for k := range c {
		s += int64(q[k]) * int64(c[k])
	}
	return s
}

// naiveCodeMax is the code kernel's specification in int64: query row r's
// largest naive dot with a stored row, MinInt32 for a block without rows.
func naiveCodeMax(q []int16, c []int8, dim, r int) int64 {
	most := int64(math.MinInt32)
	for j := 0; j < len(c)/dim; j++ {
		most = max(most, naiveCodeDot(q[r*dim:(r+1)*dim], c[j*dim:(j+1)*dim]))
	}
	return most
}

// checkCodeDots holds the selected body of the code kernel to its int64
// transcription on one panel of four query rows and the stored rows c.
func checkCodeDots(t testing.TB, q []int16, c []int8, dim int) {
	got := codeMaxDots(q, c, dim)
	for r := range got {
		if want := naiveCodeMax(q, c, dim, r); int64(got[r]) != want {
			t.Fatalf("%s body, dim %d, %d stored rows, query row %d: largest dot %d, naive %d", CosineKernel(), dim, len(c)/dim, r, got[r], want)
		}
	}
}

// codeRows draws a panel of four query rows and nc stored rows of codes at
// dim, each element either random or at the range's edge with its sign, so
// that some dots reach the largest magnitude the range allows.
func codeRows(rng *rand.Rand, dim, nc int) ([]int16, []int8) {
	limit := queryCodeRange(dim)
	q, c := make([]int16, PanelRows*dim), make([]int8, nc*dim)
	edge := rng.Intn(3) == 0
	for i := range q {
		q[i] = int16(rng.Intn(2*limit+1) - limit)
		if edge {
			q[i] = int16(limit)
		}
	}
	for i := range c {
		c[i] = int8(rng.Intn(2*codeMax+1) - codeMax)
		if edge {
			c[i] = int8(codeMax * (1 - 2*(i/dim%2)))
		}
	}
	return q, c
}

// sweepCode is the code family's sweep: every dimension around the AVX2
// body's sixteen-element step and the served ones, 0 to 9 stored rows (one
// row among them), with random codes and codes at the range's edge.
func sweepCode(t *testing.T, rng *rand.Rand) {
	for _, dim := range []int{1, 3, 15, 16, 17, 31, 32, 100, 127, 128, 129, 768} {
		for nc := 0; nc <= 9; nc++ {
			for rep := 0; rep < 3; rep++ {
				q, c := codeRows(rng, dim, nc)
				checkCodeDots(t, q, c, dim)
			}
		}
	}
}

// fuzzCode gives the fuzzer the dimension, the stored row count and every
// code, folded into the kernel's domain.
func fuzzCode(t *testing.T, in fuzzInput) {
	dim, nc := int(in.u8())%130+1, int(in.u8())%9
	limit := queryCodeRange(dim)
	q, c := make([]int16, PanelRows*dim), make([]int8, nc*dim)
	for i := range q {
		q[i] = int16(int(int16(binary.LittleEndian.Uint16(in.bytes(2)))) % (limit + 1))
	}
	for i := range c {
		c[i] = max(int8(in.u8()), -codeMax)
	}
	checkCodeDots(t, q, c, dim)
}

// codeSeeds: dimension, stored rows, then the codes.
func codeSeeds() [][]byte {
	return [][]byte{
		{16, 1, 0xff, 0x7f},
		{128, 3, 0x01, 0x80, 0xff, 0x7f, 0x81},
		{17, 8, 0x00, 0x80, 0x00, 0x80, 0x7f, 0x80},
		{30, 1, 0x80, 0x7f, 0x01},
	}
}

// exactErr is ‖v − s·k‖₂², exactly.
func exactErr[T int8 | int16](v Vec, s float64, k []T) *big.Rat {
	sum, d, sr := new(big.Rat), new(big.Rat), new(big.Rat).SetFloat64(s)
	for i, x := range v {
		d.SetFloat64(x)
		d.Sub(d, new(big.Rat).Mul(sr, new(big.Rat).SetInt64(int64(k[i]))))
		sum.Add(sum, d.Mul(d, d))
	}
	return sum
}

// certify checks that e bounds the residual of v's codes k at scale s:
// e² >= ‖v − s·k‖₂², in exact arithmetic.
func certify[T int8 | int16](t testing.TB, label string, v Vec, cs CodeScale, k []T) {
	t.Helper()
	e := new(big.Rat).SetFloat64(cs.Err)
	if e.Mul(e, e).Cmp(exactErr(v, cs.Scale, k)) < 0 {
		want, _ := exactErr(v, cs.Scale, k).Float64()
		t.Fatalf("%s: error bound %g below the residual %g (dim %d)", label, cs.Err, math.Sqrt(want), len(v))
	}
}

// adversarialRows are the rows the bound is tightest or its arithmetic most
// fragile on: one-hot rows of either sign; rows whose components all have
// one magnitude; a row with one tiny component beside a big one; a row with
// a component whose code rounds to 127 from below 126.5 + ½; and the
// all-zero row. Every row is unit length but the last.
func adversarialRows(rng *rand.Rand, dim int) []Vec {
	unit := func(v Vec) Vec { NormalizeInPlace(v); return v }
	var rows []Vec
	for _, at := range []int{0, dim - 1} {
		for _, sign := range []float64{1, -1} {
			v := make(Vec, dim)
			v[at] = sign
			rows = append(rows, v)
		}
	}
	equal := make(Vec, dim)
	for k := range equal {
		equal[k] = float64(1 - 2*rng.Intn(2))
	}
	rows = append(rows, unit(equal))
	if dim > 1 {
		tiny := make(Vec, dim)
		tiny[0], tiny[dim-1] = 1, 1e-300
		rows = append(rows, unit(tiny))
		edge := randomVecs(rng, 1, dim)[0]
		edge[0], edge[1] = 1000, -1000*126.51/127
		rows = append(rows, unit(edge))
	}
	return append(rows, make(Vec, dim))
}

// checkBounds quantises rows as one stored block, each row as a one-row
// block of its own and every row as a query row, certifies every error
// bound exactly, and holds RowBounds to three rules: a row's own bound is at
// least the scan kernel's float64 dot (DotBlock) with each query row; the
// block's bound is codeBound at the int64 transcription's largest integer
// dot and the block's scales; and it is at least every float64 dot of the
// block.
func checkBounds(t testing.TB, rows []Vec) {
	t.Helper()
	dim := len(rows[0])
	var block []float64
	for _, v := range rows {
		block = append(block, v...)
	}
	stored := NewCodeBlock(len(rows), dim)
	stored.Quantize(block, dim)
	query := NewQueryCodes(rows)
	own := make([]CodeBlock, len(rows))
	for j, v := range rows {
		own[j] = NewCodeBlock(1, dim)
		own[j].Quantize(v, dim)
		certify(t, "row of the block", v, stored.S, stored.K[j*dim:(j+1)*dim])
		certify(t, "row alone", v, own[j].S, own[j].K)
		certify(t, "query row", v, query.s[j], query.k[j*dim:(j+1)*dim])
	}
	n := len(rows)
	dots := make([]float64, n*n)
	panels := NewQueryPanels(rows)
	for p := 0; p*PanelRows < n; p++ {
		panels.DotBlock(p, block, dots)
		var whole [PanelRows]float64
		query.RowBounds(p, stored, &whole)
		for r := range whole {
			i := p*PanelRows + r
			if i >= n {
				break
			}
			d := naiveCodeMax(query.k[p*PanelRows*dim:], stored.K, dim, r)
			if want := codeBound(query.s[i], stored.S, int32(d)); whole[r] != want {
				t.Fatalf("%s body, dim %d: query row %d's bound over the block is %v, codeBound of its largest dot %d is %v",
					CosineKernel(), dim, i, whole[r], d, want)
			}
			for j := 0; j < n; j++ {
				var cell [PanelRows]float64
				query.RowBounds(p, own[j], &cell)
				if dot := dots[i*n+j]; !(cell[r] >= dot) || !(whole[r] >= dot) {
					t.Fatalf("%s body, dim %d: bound %v (row alone) or %v (block) below the float64 dot %v of query row %d and stored row %d",
						CosineKernel(), dim, cell[r], whole[r], dot, i, j)
				}
			}
		}
	}
}

// checkExtremal holds codeBound where its proof is tight, in exact
// arithmetic: the stored row c = e₀ is kept as codes (127, 0, …) at a scale
// that overshoots it by about ec, so ‖s_c·k_c‖ = 1 + E_c, and the query row
// q = −e₀ as (−range, 0, …) overshooting by about eq, so that q's residual
// lies along c's codes and c's residual along q. The dot is −1 and the bound
// exceeds it by 2⁻³⁰ less the roundings: every term of the bound is needed.
func checkExtremal(t testing.TB, dim int, ec, eq float64) {
	t.Helper()
	limit := queryCodeRange(dim)
	side := func(code int, over float64) CodeScale {
		s := (1 + over) / float64(code)
		res := new(big.Rat).SetFloat64(s)
		res.Sub(res.Mul(res, new(big.Rat).SetInt64(int64(code))), big.NewRat(1, 1))
		e, _ := res.Abs(res).Float64()
		if new(big.Rat).SetFloat64(e).Cmp(res) < 0 {
			e = math.Nextafter(e, 1)
		}
		return CodeScale{s, e}
	}
	cs, qs := side(codeMax, ec), side(limit, eq)
	if b := codeBound(qs, cs, int32(-codeMax*limit)); !(b >= -1) {
		t.Fatalf("dim %d, E_c %g, E_q %g: bound %v below the dot -1 of a stored row and its negation", dim, cs.Err, qs.Err, b)
	}
}

// spreadRows are rows whose largest magnitudes differ 100×, the case one
// scale per block codes worst: unit rows, and the same rows scaled to a
// hundredth of the largest magnitude among them.
func spreadRows(rng *rand.Rand, n, dim int) []Vec {
	var rows []Vec
	for _, v := range randomVecs(rng, n, dim) {
		rows = append(rows, Normalize(v))
	}
	top := 0.0
	for _, v := range rows {
		top = max(top, largestAbs(v))
	}
	for _, v := range rows[:n/2] {
		small := make(Vec, dim)
		for k, x := range v {
			small[k] = x * (top / 100 / largestAbs(v))
		}
		rows = append(rows, small)
	}
	return rows
}

// TestCodeBound holds the pre-pass's bound, under both bodies, to the
// float64 dot it must never undercut: random unit rows beside the
// adversarial ones (an all-zero row among them), and blocks whose rows'
// largest magnitudes differ 100×, at the served dimension, 16, 768 and a
// dimension that is not a multiple of 16, every error bound certified in
// exact arithmetic, and the bound's formula at the point where its proof is
// tight.
func TestCodeBound(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, dim := range []int{16, 100, 128, 768} {
			rows := adversarialRows(rng, dim)
			for _, v := range randomVecs(rng, 12, dim) {
				rows = append(rows, Normalize(v))
			}
			checkBounds(t, rows)
			checkBounds(t, spreadRows(rng, 6, dim))
			checkBounds(t, append(spreadRows(rng, 2, dim), make(Vec, dim)))
			for _, ec := range []float64{0, 0x1p-20, 0x1p-8, 0.05} {
				for _, eq := range []float64{0, 0x1p-16, 0x1p-10, 0.01} {
					checkExtremal(t, dim, ec, eq)
				}
			}
		}
	})
}

// FuzzCodeBound gives the fuzzer the dimension, the extremal overshoots and
// every bit of up to nine rows, normalised to unit length (a row that
// cannot be is all-zero), for checkBounds and checkExtremal.
func FuzzCodeBound(f *testing.F) {
	f.Add([]byte{16}, 0.0, 0.0)
	f.Add(floatBytes(1, 0, 0, 0, 1e-300, 1, 1, 1, 1), 0x1p-8, 0x1p-10)
	f.Add(append([]byte{127}, floatBytes(1000, -1000*126.51/127, 3)...), 0.05, 0.01)
	f.Fuzz(func(t *testing.T, raw []byte, ec, eq float64) {
		in := fuzzInput(raw)
		dim := int(in.u8())%130 + 1
		var rows []Vec
		for len(rows) == 0 || len(in) >= 8*dim && len(rows) < 9 {
			v := make(Vec, dim)
			for k := range v {
				v[k] = finite(in.f64())
			}
			// Scaled by its largest magnitude first, so that its norm is
			// not lost to underflow or overflow.
			if m := largestAbs(v); m > 0 {
				for k := range v {
					v[k] /= m
				}
				NormalizeInPlace(v)
			}
			rows = append(rows, v)
		}
		overshoot := func(x float64) float64 { return math.Mod(math.Abs(finite(x)), 0.25) }
		check := func() {
			checkBounds(t, rows)
			checkExtremal(t, dim, overshoot(ec), overshoot(eq))
		}
		check()
		if useAVX2 {
			defer ForceGenericKernel()()
			check()
		}
	})
}
