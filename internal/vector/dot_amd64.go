package vector

func init() { useAVX2 = cpuHasAVX2() }

func dotTile(a, b []float64, dim int, out *[tileCells]float64) {
	if useAVX2 {
		dotTileAVX2(a, b, dim, out)
	} else {
		dotTileGeneric(a, b, dim, out)
	}
}

func dotCols(q, c0, c1, c2, c3 []float64, out *[blockCells]float64) {
	if useAVX2 {
		dotColsAVX2(q, c0, c1, c2, c3, out)
	} else {
		dotColsGeneric(q, c0, c1, c2, c3, out)
	}
}

// cpuHasAVX2 reports whether the processor implements AVX2 and the operating
// system saves the YMM registers across context switches.
func cpuHasAVX2() bool

//go:noescape
func dotTileAVX2(a, b []float64, dim int, out *[tileCells]float64)

//go:noescape
func dotColsAVX2(q, c0, c1, c2, c3 []float64, out *[blockCells]float64)
