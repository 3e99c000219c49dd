//go:build !amd64

package vector

func dotTile(a, b []float64, dim int, out *[tileCells]float64) {
	dotTileGeneric(a, b, dim, out)
}

func dotCols(q, c0, c1, c2, c3 []float64, out *[blockCells]float64) {
	dotColsGeneric(q, c0, c1, c2, c3, out)
}
