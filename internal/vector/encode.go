package vector

import "math"

// The encode kernel: the three loops under embed.EncodeTokens. By
// specification, with every product rounded to float64 before it is added,
//
//	derive      state += 0x9e3779b97f4a7c15; z = mix(state)      (splitmix64)
//	            s = 0; for lane = 0 .. 3: s += float64(z>>(16*lane)&0xffff)/65535.0 - 0.5
//	            out[i] = s * math.Sqrt(3); sum += float64(out[i] * out[i])
//	            for i = 0 .. dim-1 in order, then out[i] /= math.Sqrt(sum)
//	accumulate  dst[i] += float64(s * src[i])
//	scale       v[i] /= n
//
// The loops below are that specification and the generic body at once. The
// AVX2 body (encode_amd64.s) runs the same IEEE operations in the same order
// on four elements at a time: its lanes lie across four elements, never
// across the four 16-bit lanes of one; it divides with VDIVPD, never by a
// reciprocal (the reciprocal multiply differs on 88 of the 65 536 lane
// values); it multiplies and adds in separate instructions; and sum, the one
// serial chain, takes the four squares one at a time in element order. So
// the proof of bit equality is the instruction-set manual, not an error
// analysis, and a vector is the same bits under either body, on every
// architecture. A length that is not a multiple of four finishes here, in
// Go, from the splitmix state and the running sum the assembly hands back.
// useAVX2 (dot.go) selects the body, as it does for the cosine kernel.

// splitmix64 advances and scrambles a 64-bit state (Steele et al.).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}

// unitGaussian converts a 64-bit word to an approximately standard-normal
// float via the sum of 4 scaled uniform lanes (Irwin-Hall approximation,
// plenty for embedding geometry).
func unitGaussian(z uint64) float64 {
	var s float64
	for i := 0; i < 4; i++ {
		lane := (z >> (i * 16)) & 0xffff
		s += float64(lane)/65535.0 - 0.5
	}
	return s * math.Sqrt(3) // variance of sum of 4 uniforms on [-.5,.5] is 1/3
}

// gaussFill writes the elements of derive before they are scaled and returns
// the sum of their squares.
func gaussFill(seed uint64, out Vec) float64 {
	state, sum, i := gaussHead(seed, out)
	for ; i < len(out); i++ {
		var z uint64
		state, z = splitmix64(state)
		out[i] = unitGaussian(z)
		sum += float64(out[i] * out[i])
	}
	return sum
}

// PseudoUnit fills out with the deterministic pseudo-random unit vector
// derived from seed: a pure function of (seed, len(out)).
func PseudoUnit(seed uint64, out Vec) {
	if norm := math.Sqrt(gaussFill(seed, out)); norm != 0 {
		div(out, norm)
	}
}

// AddScaled adds s*src into dst.
func AddScaled(dst, src Vec, s float64) {
	checkLen(dst, src)
	for i := addScaledHead(dst, src, s); i < len(dst); i++ {
		dst[i] += float64(s * src[i])
	}
}

// NormalizeInPlace scales v to unit L2 norm; a zero vector is left as it is.
func NormalizeInPlace(v Vec) {
	if n := Norm(v); n != 0 {
		div(v, n)
	}
}

func div(v Vec, n float64) {
	for i := divHead(v, n); i < len(v); i++ {
		v[i] /= n
	}
}
