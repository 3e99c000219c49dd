//go:build !amd64

package vector

func gaussHead(seed uint64, out []float64) (state uint64, sum float64, done int) {
	return seed, 0, 0
}

func addScaledHead(dst, src []float64, s float64) int { return 0 }

func divHead(v []float64, n float64) int { return 0 }
