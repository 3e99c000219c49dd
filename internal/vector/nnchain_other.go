//go:build !amd64

package vector

func nearest(row, mask []float32, live []int) (int, float32) {
	return nearestGeneric(row, live)
}

func average(rowA, rowB []float32, live []int, a, b int, wa, wb float64) {
	averageGeneric(rowA, rowB, live, a, b, wa, wb)
}
