package vector

import "math"

// The AVX2 bodies take the leading multiple of eight (nearest) or four
// (average) cells; the rest finish here, under the same rules.

func nearest(row, mask []float32, live []int) (int, float32) {
	if !useAVX2 {
		return nearestGeneric(row, live)
	}
	head := len(row) &^ 7
	best, bestD := nearestAVX2(row[:head], mask[:head]), float32(math.Inf(1))
	if best >= 0 {
		bestD = row[best]
	}
	for j := head; j < len(row); j++ {
		if mask[j] == 0 && row[j] < bestD {
			best, bestD = j, row[j]
		}
	}
	return best, bestD
}

func average(rowA, rowB []float32, live []int, a, b int, wa, wb float64) {
	if !useAVX2 {
		averageGeneric(rowA, rowB, live, a, b, wa, wb)
		return
	}
	head := len(rowA) &^ 3
	averageAVX2(rowA[:head], rowB[:head], wa, wb)
	for k := head; k < len(rowA); k++ {
		rowA[k] = averageCell(rowA[k], rowB[k], wa, wb)
	}
}

// nearestAVX2 returns the first slot of the least row[j]+mask[j] below +Inf,
// or -1.
//
//go:noescape
func nearestAVX2(row, mask []float32) int

//go:noescape
func averageAVX2(rowA, rowB []float32, wa, wb float64)
