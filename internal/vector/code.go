package vector

import "math"

// The code kernel: exact integer dot products between short integer codes of
// rows, under the exact scan's certified pre-pass. A stored row c keeps,
// beside its float64 bits, int8 codes k_c with scale s_c = max|c|/127 and a
// bound E_c >= ‖c − s_c·k_c‖₂ computed from those codes; a query row q gets
// int16 codes k_q within ±queryCodeRange(dim), with s_q and E_q. For rows of
// norm at most 1 — the scan's unit or all-zero rows — the dot is then bounded
// from the integer dot D = k_q·k_c alone:
//
//	q·c = s_q·s_c·D + e_q·(s_c·k_c) + q·e_c
//	    <= s_q·s_c·D + E_q·(1 + E_c) + E_c
//
// where e = row − s·k, since ‖s_c·k_c‖ <= ‖c‖ + E_c and ‖q‖ <= 1. codeBound
// adds 2⁻³⁰ to that, which covers every rounding between it and the
// float64 cell the cosine kernel computes (at most dim·2⁻⁵³ apart for unit
// rows) and the few roundings of its own evaluation, so the bound holds
// against the float64 cell itself, not only against the real dot.
//
// By specification
//
//	D = 0; for k = 0 .. dim-1: D += int32(k_q[k]) * int32(k_c[k])
//
// exactly: every product is at most 127·queryCodeRange(dim), and dim of them
// stay within 2³¹−1, so neither the sum nor any partial sum of it, in any
// order, overflows. Integer addition is associative, so the AVX2 body
// (code_amd64.s), which multiplies pairs and adds them across eight lanes,
// returns the generic body's integers by arithmetic, not by care.

// codeMax is the largest stored code: codes are symmetric int8s.
const codeMax = 127

// queryCodeRange is the largest query code at dimension dim: an int16 as
// long as dim·127·range fits an int32.
func queryCodeRange(dim int) int {
	return min(math.MaxInt16, math.MaxInt32/(codeMax*max(dim, 1)))
}

// CodeScale is one quantised row's scale s, the value of a unit code, and
// its error bound E >= ‖row − s·codes‖₂.
type CodeScale struct{ Scale, Err float64 }

// quantize writes the codes of v, each within ±limit, to dst and returns
// their scale and error bound. An all-zero row has zero codes, scale and
// error.
func quantize[T int8 | int16](dst []T, v Vec, limit int) CodeScale {
	m := 0.0
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	if m == 0 {
		clear(dst)
		return CodeScale{}
	}
	s := m / float64(limit)
	for i, x := range v {
		dst[i] = T(max(-float64(limit), min(float64(limit), math.RoundToEven(x/s))))
	}
	return CodeScale{s, codeErr(v, s, dst, m)}
}

// codeErr bounds ‖v − s·k‖₂ from above, where m = max|v| > 0. The residual
// is summed in float64 and rounded up by a margin that exceeds its rounding
// error: each element's residual is off by at most 2⁻⁵³(|s·k_i| + |e_i|)
// and the sum of squares, root included, by a relative (dim/2+3)·2⁻⁵³, so a
// relative and an absolute (dim+8)·2⁻⁵² — the absolute one against ‖s·k‖ <=
// √dim·m — cover both with room for the three roundings of the margin
// itself. (Squares that underflow lose less than the absolute term for any
// row whose m is not below 2⁻⁵⁰⁰.)
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
// (s_q·s_c·D + (1+E_q)·E_c) + (E_q + 2⁻³⁰), the cell's part first, so that
// a row's largest bound is its largest cell part plus the row's part.
func codeBound(q, c CodeScale, d int32) float64 {
	return cellBound(q.Scale, 1+q.Err, c, d) + rowLift(q)
}

// cellBound is the part of codeBound that depends on the stored row, from
// the query row's scale and 1 + E_q.
func cellBound(scale, grow float64, c CodeScale, d int32) float64 {
	return float64(float64(scale*c.Scale)*float64(d)) + float64(grow*c.Err)
}

// rowLift is the part of codeBound that depends on the query row alone.
func rowLift(q CodeScale) float64 { return q.Err + 0x1p-30 }

// CodeBlock is the code side of a row-major block of stored rows: row j's
// codes are K[j*dim : (j+1)*dim] and its scale and error bound S[j].
type CodeBlock struct {
	K []int8
	S []CodeScale
}

// CarveCodeBlocks cuts one allocation of codes and one of scales into
// blocks of rows[i] rows each, capacity-capped, in order.
func CarveCodeBlocks(rows []int, dim int) []CodeBlock {
	total := 0
	for _, n := range rows {
		total += n
	}
	k, s := make([]int8, total*dim), make([]CodeScale, total)
	out := make([]CodeBlock, len(rows))
	for i, n := range rows {
		out[i] = CodeBlock{K: k[: n*dim : n*dim], S: s[:n:n]}
		k, s = k[n*dim:], s[n:]
	}
	return out
}

// NewCodeBlock is CarveCodeBlocks for one block of rows rows.
func NewCodeBlock(rows, dim int) CodeBlock { return CarveCodeBlocks([]int{rows}, dim)[0] }

// Quantize fills b, sized for it, with the codes of block's rows of
// dimension dim.
func (b CodeBlock) Quantize(block []float64, dim int) {
	for j := range b.S {
		b.S[j] = quantize(b.K[j*dim:(j+1)*dim], block[j*dim:(j+1)*dim], codeMax)
	}
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

// codeChunk is the number of stored rows RowBounds hands the kernel at a
// time, their integer dots held on the stack.
const codeChunk = 16

// RowBounds writes to out[r] the largest codeBound of row 4p+r with any row
// of the stored block c, -Inf for a block without rows. A row the panel
// lacks gets a bound too, which callers drop. The four rows' running maxima
// are spelled out so that they stay in registers.
func (q *QueryCodes) RowBounds(p int, c CodeBlock, out *[PanelRows]float64) {
	dim := q.dim
	panel, s := q.k[p*PanelRows*dim:(p+1)*PanelRows*dim], (*[PanelRows]CodeScale)(q.s[p*PanelRows:])
	s0, s1, s2, s3 := s[0].Scale, s[1].Scale, s[2].Scale, s[3].Scale
	g0, g1, g2, g3 := 1+s[0].Err, 1+s[1].Err, 1+s[2].Err, 1+s[3].Err
	b0, b1, b2, b3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
	var d [codeChunk * PanelRows]int32
	for j0 := 0; j0 < len(c.S); j0 += codeChunk {
		stored := c.S[j0:min(j0+codeChunk, len(c.S))]
		codeDots(panel, c.K[j0*dim:(j0+len(stored))*dim], dim, d[:len(stored)*PanelRows])
		for j, cs := range stored {
			dj := (*[PanelRows]int32)(d[j*PanelRows:])
			b0 = max(b0, cellBound(s0, g0, cs, dj[0]))
			b1 = max(b1, cellBound(s1, g1, cs, dj[1]))
			b2 = max(b2, cellBound(s2, g2, cs, dj[2]))
			b3 = max(b3, cellBound(s3, g3, cs, dj[3]))
		}
	}
	*out = [PanelRows]float64{b0 + rowLift(s[0]), b1 + rowLift(s[1]), b2 + rowLift(s[2]), b3 + rowLift(s[3])}
}

// codeDots writes to out[4j+r] the integer dot of row r of the four-row
// panel q with stored row j of c, each dim long. The AVX2 head takes the
// leading multiple of sixteen elements; the rest, or everything under the
// generic body, is summed here.
func codeDots(q []int16, c []int8, dim int, out []int32) {
	if dim == 0 {
		clear(out)
		return
	}
	done := codeDotsHead(q, c, dim, out)
	if done == dim {
		return
	}
	n := dim - done
	q0, q1, q2, q3 := q[done:][:n], q[dim+done:][:n], q[2*dim+done:][:n], q[3*dim+done:][:n]
	for j := 0; j < len(c)/dim; j++ {
		o := (*[PanelRows]int32)(out[j*PanelRows:])
		if done == 0 {
			*o = [PanelRows]int32{}
		}
		s0, s1, s2, s3 := o[0], o[1], o[2], o[3]
		for k, x := range c[j*dim+done:][:n] {
			v := int32(x)
			s0 += v * int32(q0[k])
			s1 += v * int32(q1[k])
			s2 += v * int32(q2[k])
			s3 += v * int32(q3[k])
		}
		*o = [PanelRows]int32{s0, s1, s2, s3}
	}
}
