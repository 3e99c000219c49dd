package vector

import (
	"math"
	"math/rand"
	"testing"
)

// naivePseudoUnit, naiveAddScaled and naiveDiv are the encode kernel's
// specification transcribed literally: one element at a time, no head and
// no tail.
func naiveGaussian(z uint64) float64 {
	s := 0.0
	for lane := 0; lane < 4; lane++ {
		s += float64((z>>(16*lane))&0xffff)/65535.0 - 0.5
	}
	return s * math.Sqrt(3)
}

func naivePseudoUnit(seed uint64, out Vec) {
	state, sum := seed, 0.0
	for i := range out {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = naiveGaussian(z)
		sum += float64(out[i] * out[i])
	}
	if sum == 0 {
		return
	}
	naiveDiv(out, math.Sqrt(sum))
}

func naiveAddScaled(dst, src Vec, s float64) {
	for i := range dst {
		dst[i] += float64(s * src[i])
	}
}

func naiveDiv(v Vec, n float64) {
	for i := range v {
		v[i] /= n
	}
}

// unsplitmix returns the seed whose element-th splitmix64 output (counting
// from 0) is z: the finalizer is a bijection, so the lane sweep below can
// put any word in any of the assembly's four element slots.
func unsplitmix(z uint64, element int) uint64 {
	inverse := func(a uint64) uint64 { // of an odd a modulo 2^64, by Newton's iteration
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	z ^= z>>31 ^ z>>62
	z *= inverse(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inverse(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return z - uint64(element+1)*0x9e3779b97f4a7c15
}

func sameBits(a, b Vec) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkEncodeKernels holds the selected body of the three loops to the naive
// transcription, bitwise, on one seed and one pair of vectors. The vectors
// are read at every offset 0 .. 3 of a larger array, so the assembly meets
// addresses that are 8-byte but not 32-byte aligned.
func checkEncodeKernels(t testing.TB, seed uint64, a, b Vec, s, n float64) {
	dim := len(a)
	for off := 0; off < 4; off++ {
		got, want := make(Vec, off+dim)[off:], make(Vec, dim)
		PseudoUnit(seed, got)
		naivePseudoUnit(seed, want)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%s body, derive, seed %#x, dim %d, offset %d: element %d = %v (%#x), naive %v (%#x)",
				CosineKernel(), seed, dim, off, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}

		dst := append(make(Vec, off), a...)[off:]
		src := append(make(Vec, 3-off), b...)[3-off:]
		want = Clone(a)
		AddScaled(dst, src, s)
		naiveAddScaled(want, b, s)
		if i := sameBits(dst, want); i >= 0 {
			t.Fatalf("%s body, accumulate, s %g, dim %d, offset %d: element %d = %v, naive %v", CosineKernel(), s, dim, off, i, dst[i], want[i])
		}
		if sameBits(src, b) >= 0 {
			t.Fatalf("%s body, accumulate, dim %d: src was written", CosineKernel(), dim)
		}

		v := append(make(Vec, off), a...)[off:]
		want = Clone(a)
		div(v, n)
		naiveDiv(want, n)
		if i := sameBits(v, want); i >= 0 {
			t.Fatalf("%s body, scale, n %g, dim %d, offset %d: element %d = %v, naive %v", CosineKernel(), n, dim, off, i, v[i], want[i])
		}
	}
}

// sweepEncode is the encode family's sweep over the three loops: derive
// over ragged dimensions and strided seeds, accumulate over the weights
// EncodeTokens uses and two that underflow and overflow, scale over tiny,
// unit and huge norms — all on unaligned sub-slices — and then the
// lane-to-float step over its whole domain: every 16-bit value in each of
// the four lane positions, in each of the assembly's four element slots,
// against a zero, a near-cancelling (0x8000: lane/65535 - 0.5 is 7.6e-6, so
// the sum keeps the swept lane's low bits) and a scrambled background in the
// other three lanes. Measured on the mutant the kernel refuses: multiplying
// by 1/65535 moves the quotient on 88 lane values and lane/65535 - 0.5 on 24
// of them, and the 0x8000 background shows all 24 in all four positions.
func sweepEncode(t *testing.T, rng *rand.Rand) {
	seeds := []uint64{0, 1, ^uint64(0)}
	for i := uint64(0); i < 10000; i++ {
		seeds = append(seeds, i*0x9e3779b97f4a7c15+i)
	}
	for _, dim := range []int{0, 1, 3, 4, 5, 127, 128, 129, 768} {
		a, b := hostileVec(rng, dim), hostileVec(rng, dim)
		weights := []float64{1, 0.5, 1.2, 4.0, 1e-300, 1e300}
		norms := []float64{5e-324, 1e-160, 1, 1e150, math.MaxFloat64}
		for i, seed := range seeds {
			if dim > 129 && i%50 != 0 {
				continue
			}
			checkEncodeKernels(t, seed, a, b, weights[i%len(weights)], norms[i%len(norms)])
		}
	}

	var got [4]float64
	for pos := 0; pos < 4; pos++ {
		for lane := uint64(0); lane <= 0xffff; lane++ {
			keep := ^(uint64(0xffff) << (16 * pos))
			_, scrambled := splitmix64(lane<<2 | uint64(pos))
			for _, background := range []uint64{0, 0x8000800080008000, scrambled} {
				z := background&keep | lane<<(16*pos)
				want := naiveGaussian(z)
				for slot := range got {
					gaussFill(unsplitmix(z, slot), got[:])
					if math.Float64bits(got[slot]) != math.Float64bits(want) {
						t.Fatalf("%s body, lane value %#x in position %d, word %#x in slot %d: %v (%#x), naive %v (%#x)",
							CosineKernel(), lane, pos, z, slot, got[slot], math.Float64bits(got[slot]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// fuzzEncode gives the fuzzer the seed, the dimension, the weight, the norm
// and every bit of both vectors, kept finite, for checkEncodeKernels.
func fuzzEncode(t *testing.T, in fuzzInput) {
	seed, dim := in.u64(), int(in.u8())%131
	s, n := finite(in.f64()), finite(in.f64())
	if n == 0 {
		n = 1
	}
	a, b := make(Vec, dim), make(Vec, dim)
	for k := range a {
		if len(in) >= 16 {
			a[k], b[k] = finite(in.f64()), finite(in.f64())
		}
	}
	checkEncodeKernels(t, seed, a, b, s, n)
}

// BenchmarkEncodeKernels times the three loops at the served dimension
// under each body.
func BenchmarkEncodeKernels(b *testing.B) {
	const dim = 128
	v, w := make(Vec, dim), make(Vec, dim)
	PseudoUnit(1, w)
	for _, avx2 := range []bool{true, false} {
		if avx2 && !useAVX2 {
			continue
		}
		saved := useAVX2
		useAVX2 = avx2
		for _, loop := range []struct {
			name string
			run  func(i int)
		}{
			{"derive", func(i int) { PseudoUnit(uint64(i), v) }},
			{"accumulate", func(i int) { AddScaled(v, w, 0.5) }},
			{"scale", func(i int) { div(v, 1.0000001) }},
		} {
			b.Run(loop.name+"/"+CosineKernel(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					loop.run(i)
				}
			})
		}
		useAVX2 = saved
	}
}
