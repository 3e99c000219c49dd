// Package vector provides the dense-vector math substrate used throughout
// the DUST reproduction: dot products, norms, the distance functions the
// paper evaluates (cosine, euclidean, manhattan), mean vectors, and a small
// PCA implementation used to regenerate Figure 2.
//
// Vectors are plain []float64 slices. All functions treat a nil slice as a
// zero-length vector and panic on dimension mismatch, because a mismatch is
// always a programming error in this codebase, never a data error.
package vector

import (
	"fmt"
	"math"
)

// Vec is a dense vector. It is an alias-style named type so callers can hang
// methods off it while still passing ordinary slices everywhere.
type Vec = []float64

// Dot returns the inner product of a and b. Here and below a product that
// feeds a sum is converted explicitly: without the conversion a compiler may
// fuse x*y + z, and on arm64 it does, which would make the bits of every norm
// (hence of every stored vector) depend on the architecture.
func Dot(a, b Vec) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// Norm returns the L2 norm of v.
func Norm(v Vec) float64 {
	return math.Sqrt(Dot(v, v))
}

// dotAndNorms is the fused kernel behind Cosine: one pass over a and b
// computing a·b, a·a, and b·b, so the hot similarity path never walks
// the vectors three times through Dot and Norm.
func dotAndNorms(a, b Vec) (dot, na, nb float64) {
	checkLen(a, b)
	for i := range a {
		dot += float64(a[i] * b[i])
		na += float64(a[i] * a[i])
		nb += float64(b[i] * b[i])
	}
	return dot, na, nb
}

// Cosine returns the cosine similarity of a and b, clamped into [-1, 1].
// If either vector has zero norm the similarity is defined as 0.
//
// The denominator is √(na·nb), not √na·√nb: for byte-identical a and b the
// three sums are one number x, √(x·x) is exactly x under IEEE rounding, and
// the similarity is exactly 1 — so CosineDistance(v, v) is exactly 0, as
// DistanceFunc requires, instead of an ulp either side of it. The clamp
// covers the remaining pairs whose rounded ratio overshoots ±1.
func Cosine(a, b Vec) float64 {
	dot, na, nb := dotAndNorms(a, b)
	if na == 0 || nb == 0 {
		return 0
	}
	p := na * nb
	den := math.Sqrt(p)
	if p < 0x1p-1022 || math.IsInf(p, 1) {
		// The product left float64's normal range; the two roots cannot.
		den = math.Sqrt(na) * math.Sqrt(nb)
	}
	c := dot / den
	if c > 1 {
		return 1
	}
	if c < -1 {
		return -1
	}
	return c
}

// CosineDistance returns 1 - Cosine(a, b) in [0, 2], the distance used by
// the paper's tuple representation model and diversification experiments.
func CosineDistance(a, b Vec) float64 {
	return 1 - Cosine(a, b)
}

// SquaredEuclidean returns the squared L2 distance between a and b: the
// monotone companion of Euclidean that skips the sqrt. For unit vectors it
// is 2(1-cosine), so nearest-by-SquaredEuclidean is highest-by-cosine.
func SquaredEuclidean(a, b Vec) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// SquaredEuclideans returns SquaredEuclidean(a, b[t]) for t < 4, bit for
// bit: four one-accumulator sums in element order, each difference squared
// and rounded to float64 before it is added, interleaved so that the four
// additions of a step do not wait on each other (as Dots does for dots).
// A row of b may appear more than once; each must be as long as a.
func SquaredEuclideans(a Vec, b *[4]Vec) [4]float64 {
	for _, r := range b {
		checkLen(a, r)
	}
	n := len(a)
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	var s0, s1, s2, s3 float64
	for k, x := range a {
		d0, d1, d2, d3 := x-b0[k], x-b1[k], x-b2[k], x-b3[k]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	return [4]float64{s0, s1, s2, s3}
}

// Euclidean returns the L2 distance between a and b.
func Euclidean(a, b Vec) float64 {
	return math.Sqrt(SquaredEuclidean(a, b))
}

// Manhattan returns the L1 distance between a and b.
func Manhattan(a, b Vec) float64 {
	checkLen(a, b)
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// DistanceFunc maps two equal-dimension vectors to a non-negative distance.
// The distance between a vector and itself must be 0 (paper §3.1).
type DistanceFunc func(a, b Vec) float64

// Distances registered by name, used by CLI flags and experiment configs.
var distances = map[string]DistanceFunc{
	"cosine":    CosineDistance,
	"euclidean": Euclidean,
	"manhattan": Manhattan,
}

// Distance returns the registered distance function with the given name.
func Distance(name string) (DistanceFunc, error) {
	fn, ok := distances[name]
	if !ok {
		return nil, fmt.Errorf("vector: unknown distance %q (want cosine, euclidean, or manhattan)", name)
	}
	return fn, nil
}

// DistanceNames returns the names accepted by Distance, sorted.
func DistanceNames() []string {
	return []string{"cosine", "euclidean", "manhattan"}
}

// Add returns a new vector a+b.
func Add(a, b Vec) Vec {
	checkLen(a, b)
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a new vector a-b.
func Sub(a, b Vec) Vec {
	checkLen(a, b)
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns a new vector v*s.
func Scale(v Vec, s float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}

// AddInPlace adds b into a.
func AddInPlace(a, b Vec) {
	checkLen(a, b)
	for i := range a {
		a[i] += b[i]
	}
}

// Normalize returns v scaled to unit L2 norm; a zero vector is returned
// unchanged (as a copy).
func Normalize(v Vec) Vec {
	out := Clone(v)
	NormalizeInPlace(out)
	return out
}

// Mean returns the component-wise mean of vs. It panics if vs is empty,
// because the mean of nothing has no dimension.
func Mean(vs []Vec) Vec {
	if len(vs) == 0 {
		panic("vector: Mean of empty set")
	}
	out := make(Vec, len(vs[0]))
	for _, v := range vs {
		AddInPlace(out, v)
	}
	inv := 1 / float64(len(vs))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Clone returns a copy of v.
func Clone(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

func checkLen(a, b Vec) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", len(a), len(b)))
	}
}
