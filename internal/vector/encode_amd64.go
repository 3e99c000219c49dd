package vector

// The heads run the AVX2 body over the leading multiple of four elements
// and return how far they got: 0 under the generic body.

func gaussHead(seed uint64, out []float64) (state uint64, sum float64, done int) {
	if !useAVX2 {
		return seed, 0, 0
	}
	state, sum = gaussFillAVX2(seed, out)
	return state, sum, len(out) &^ 3
}

func addScaledHead(dst, src []float64, s float64) int {
	if !useAVX2 {
		return 0
	}
	addScaledAVX2(dst, src, s)
	return len(dst) &^ 3
}

func divHead(v []float64, n float64) int {
	if !useAVX2 {
		return 0
	}
	divAVX2(v, n)
	return len(v) &^ 3
}

// The three stop at the last whole group of four elements.

//go:noescape
func gaussFillAVX2(state uint64, out []float64) (next uint64, sum float64)

//go:noescape
func addScaledAVX2(dst, src []float64, s float64)

//go:noescape
func divAVX2(v []float64, n float64)
