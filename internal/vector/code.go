package vector

import "math"

// The code kernel: exact integer dot products between short integer codes of
// rows, under the exact scan's certified pre-pass. A stored block of rows
// keeps, beside its float64 bits, int8 codes k_c of every row c at the one
// scale s_c = max|block|/127 and one bound E_c >= ‖c − s_c·k_c‖₂ that holds
// for every row; a query row q gets int16 codes k_q within
// ±queryCodeRange(dim), with s_q and E_q. For rows of norm at most 1 — the
// scan's unit or all-zero rows — the dot is then bounded from the integer
// dot D = k_q·k_c alone:
//
//	q·c = s_q·s_c·D + e_q·(s_c·k_c) + q·e_c
//	    <= s_q·s_c·D + E_q·(1 + E_c) + E_c
//
// where e = row − s·k, since ‖s_c·k_c‖ <= ‖c‖ + E_c and ‖q‖ <= 1. codeBound
// adds 2⁻³⁰ to that, which covers every rounding between it and the
// float64 cell the cosine kernel computes (at most dim·2⁻⁵³ apart for unit
// rows) and the few roundings of its own evaluation, so the bound holds
// against the float64 cell itself, not only against the real dot. The
// scales are shared by the whole block and the bound is monotone in D, so
// the bound of a query row over the block is the bound at the block's
// largest integer dot: that maximum is all the kernel returns.
//
// By specification, for each of four query rows r and the n stored rows j,
//
//	D_r = MinInt32; for j: d = 0; for k = 0 .. dim-1: d += int32(k_q[r][k]) * int32(k_c[j][k]); D_r = max(D_r, d)
//
// exactly: every product is at most 127·queryCodeRange(dim), and dim of them
// stay within 2³¹−1, so neither the sum nor any partial sum of it, in any
// order, overflows, and no dot reaches MinInt32, which therefore marks a
// block without rows. Integer addition is associative, so the AVX2 body
// (code_amd64.s), which multiplies pairs and adds them across eight lanes,
// returns the generic body's integers by arithmetic, not by care.

// codeMax is the largest stored code: codes are symmetric int8s.
const codeMax = 127

// queryCodeRange is the largest query code at dimension dim: an int16 as
// long as dim·127·range fits an int32.
func queryCodeRange(dim int) int {
	return min(math.MaxInt16, math.MaxInt32/(codeMax*max(dim, 1)))
}

// CodeScale is the scale s of a quantised row or block, the value of a unit
// code, and its error bound E >= ‖row − s·codes‖₂, for every row of a block.
type CodeScale struct{ Scale, Err float64 }

// quantize writes the codes of v, each within ±limit, to dst and returns
// their scale and error bound. An all-zero row has zero codes, scale and
// error.
func quantize[T int8 | int16](dst []T, v Vec, limit int) CodeScale {
	m := largestAbs(v)
	if m == 0 {
		clear(dst)
		return CodeScale{}
	}
	s := m / float64(limit)
	return CodeScale{s, codeAt(dst, v, s, m, limit)}
}

// largestAbs is max|x| over v, 0 for an empty v.
func largestAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	return m
}

// codeAt writes the codes of v at scale s = m/limit, where m >= max|v|, to
// dst and returns their error bound.
func codeAt[T int8 | int16](dst []T, v Vec, s, m float64, limit int) float64 {
	for i, x := range v {
		dst[i] = T(max(-float64(limit), min(float64(limit), math.RoundToEven(x/s))))
	}
	return codeErr(v, s, dst, m)
}

// codeErr bounds ‖v − s·k‖₂ from above, where m >= max|v|, m > 0, and every
// |s·k_i| <= m. The residual is summed in float64 and rounded up by a margin
// that exceeds its rounding error: each element's residual is off by at most
// 2⁻⁵³(|s·k_i| + |e_i|) and the sum of squares, root included, by a relative
// (dim/2+3)·2⁻⁵³, so a relative and an absolute (dim+8)·2⁻⁵² — the absolute
// one against ‖s·k‖ <= √dim·m — cover both with room for the three roundings
// of the margin itself. (Squares that underflow lose less than the absolute
// term for any row whose m is not below 2⁻⁵⁰⁰.)
func codeErr[T int8 | int16](v Vec, s float64, k []T, m float64) float64 {
	var ss float64
	for i, x := range v {
		d := x - float64(s*float64(k[i]))
		ss += float64(d * d)
	}
	slack := float64(float64(len(v)+8) * 0x1p-52)
	return float64(math.Sqrt(ss)*(1+slack)) + float64(m*slack)
}

// codeBound is the certified upper bound on the float64 dot of a query row
// and a stored row, unit or all-zero each, from their scales and the
// integer dot of their codes (see the kernel's specification above):
// (s_q·s_c·D + (1+E_q)·E_c) + (E_q + 2⁻³⁰). Rounding is monotone and
// s_q·s_c >= 0, so it never falls as D grows.
func codeBound(q, c CodeScale, d int32) float64 {
	cell := float64(float64(q.Scale*c.Scale)*float64(d)) + float64((1+q.Err)*c.Err)
	return cell + float64(q.Err+0x1p-30)
}

// CodeBlock is the code side of a row-major block of stored rows: row j's
// codes are K[j*dim : (j+1)*dim], all at the one scale S.Scale, and S.Err
// bounds every row's residual.
type CodeBlock struct {
	K []int8
	S CodeScale
}

// CarveCodeBlocks cuts one allocation of codes into blocks of rows[i] rows
// each, capacity-capped, in order.
func CarveCodeBlocks(rows []int, dim int) []CodeBlock {
	total := 0
	for _, n := range rows {
		total += n
	}
	k := make([]int8, total*dim)
	out := make([]CodeBlock, len(rows))
	for i, n := range rows {
		out[i].K, k = k[:n*dim:n*dim], k[n*dim:]
	}
	return out
}

// NewCodeBlock is CarveCodeBlocks for one block of rows rows.
func NewCodeBlock(rows, dim int) CodeBlock { return CodeBlock{K: make([]int8, rows*dim)} }

// Quantize fills b, sized for it, with the codes of block's rows of
// dimension dim, every row at the scale of the block's largest |x|, and the
// largest of the rows' error bounds.
func (b *CodeBlock) Quantize(block []float64, dim int) {
	m := largestAbs(block)
	if m == 0 {
		clear(b.K)
		b.S = CodeScale{}
		return
	}
	s, e := m/codeMax, 0.0
	for j := 0; j*dim < len(block); j++ {
		e = max(e, codeAt(b.K[j*dim:(j+1)*dim], block[j*dim:(j+1)*dim], s, m, codeMax))
	}
	b.S = CodeScale{s, e}
}

// QueryCodes is the query side of the pre-pass: rows quantised to int16
// codes within ±queryCodeRange(dim), four to a panel as QueryPanels holds
// them, but row-major within it (row r of panel p at k[(4p+r)*dim:]), so
// that sixteen consecutive codes of a row meet sixteen of a stored row. Rows
// the last panel lacks are zero.
type QueryCodes struct {
	dim int
	k   []int16
	s   []CodeScale
}

// NewQueryCodes quantises rows, all of one dimension.
func NewQueryCodes(rows []Vec) *QueryCodes {
	if len(rows) == 0 {
		return &QueryCodes{}
	}
	dim, padded := len(rows[0]), (len(rows)+PanelRows-1)/PanelRows*PanelRows
	q := &QueryCodes{dim: dim, k: make([]int16, padded*dim), s: make([]CodeScale, padded)}
	for i, v := range rows {
		checkLen(rows[0], v)
		q.s[i] = quantize(q.k[i*dim:(i+1)*dim], v, queryCodeRange(dim))
	}
	return q
}

// RowBounds writes to out[r] the largest codeBound of row 4p+r with any row
// of the stored block c: the bound at the block's largest integer dot with
// the row, -Inf for a block without rows. A row the panel lacks gets a bound
// too, which callers drop.
func (q *QueryCodes) RowBounds(p int, c CodeBlock, out *[PanelRows]float64) {
	if len(c.K) == 0 {
		*out = [PanelRows]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}
		return
	}
	dim := q.dim
	s := (*[PanelRows]CodeScale)(q.s[p*PanelRows:])
	d := codeMaxDots(q.k[p*PanelRows*dim:(p+1)*PanelRows*dim], c.K, dim)
	*out = [PanelRows]float64{codeBound(s[0], c.S, d[0]), codeBound(s[1], c.S, d[1]), codeBound(s[2], c.S, d[2]), codeBound(s[3], c.S, d[3])}
}

// codeMaxDots returns, for each row r of the four-row panel q, the largest
// integer dot of row r with any stored row of c (MinInt32 for none), every
// row dim > 0 long: the AVX2 body when dim is a multiple of sixteen, else
// the generic one.
func codeMaxDots(q []int16, c []int8, dim int) [PanelRows]int32 {
	var out [PanelRows]int32
	if codeMaxDotsAsm(q, c, dim, &out) {
		return out
	}
	out = [PanelRows]int32{math.MinInt32, math.MinInt32, math.MinInt32, math.MinInt32}
	q0, q1, q2, q3 := q[:dim], q[dim:][:dim], q[2*dim:][:dim], q[3*dim:][:dim]
	for j := 0; j < len(c)/dim; j++ {
		var s0, s1, s2, s3 int32
		for k, x := range c[j*dim:][:dim] {
			v := int32(x)
			s0 += v * int32(q0[k])
			s1 += v * int32(q1[k])
			s2 += v * int32(q2[k])
			s3 += v * int32(q3[k])
		}
		out = [PanelRows]int32{max(out[0], s0), max(out[1], s1), max(out[2], s2), max(out[3], s3)}
	}
	return out
}
