package vector

// The cosine kernel. Every dot product under the distance matrix and the
// exact scan is, by specification,
//
//	s = 0; for k = 0 .. dim-1: s += float64(a[k] * b[k])
//
// one accumulator per cell, the product rounded to float64 before it is
// added, elements in index order. Both bodies compute exactly that for
// every cell, so a cell is a pure function of its two rows: the same bits on
// every architecture, in every tile slot, on every worker. The AVX2 body
// (dot_amd64.s) gets its speed from laying the four lanes of a register
// across four different cells, never across k, and it multiplies and adds
// in separate instructions: a fused multiply-add skips the product's
// rounding and a lane-wise split of k reorders the sum, and either would
// change bits. The generic body spells the conversion out because Go lets a
// compiler fuse x*y + z unless the product is explicitly converted, and on
// arm64, ppc64 and s390x it does.
//
// Rows reach the kernel in panels of four: element k of rows 4p .. 4p+3 is
// panel[4k : 4k+4], so one register load feeds four cells, and one row of a
// panel is read at stride 4. A matrix tile is one panel of rows against two
// panels of columns: each column element fetched serves four rows, where a
// one-row tile streamed eight bytes of panel from L2 per multiply-add.
const (
	// PanelRows is the number of rows interleaved in a panel: the lanes of
	// a 256-bit register.
	PanelRows  = 4
	tilePanels = 2                      // column panels under one matrix tile
	tileCols   = tilePanels * PanelRows // the eight columns of a matrix tile
	tileCells  = PanelRows * tileCols   // four rows against eight: eight accumulator chains, 16 registers
	blockCells = PanelRows * PanelRows  // a scan tile: four stored rows against one panel
)

// useAVX2 selects the body: set once, by an amd64 init that found AVX2 and
// an operating system that saves its registers (dot_amd64.go), and false
// everywhere else. Nothing else selects a body: no option, no environment
// variable, no build tag beyond the amd64 / !amd64 file sets, which hold
// the functions that branch on it: dotTile and dotCols here, the three
// heads of the encode kernel (encode.go), nearest and average of the cluster
// kernels (nnchain.go).
var useAVX2 bool

// ForceGenericKernel makes the process run the generic bodies until the
// returned function is called. It is for tests, here and in the packages
// above, that must hold under both bodies; it is not synchronised with
// running kernels.
func ForceGenericKernel() (restore func()) {
	selected := useAVX2
	useAVX2 = false
	return func() { useAVX2 = selected }
}

// CosineKernel names the body the cosine kernel — and the encode and cluster
// kernels, which the same switch drives — runs in this process, "avx2" or
// "generic".
// The answers are the same; the speed is not.
func CosineKernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// dotTileGeneric writes to out[8r+c] the dot of row r of the panel a with
// row c of the two dim-element panels at b.
func dotTileGeneric(a, b []float64, dim int, out *[tileCells]float64) {
	for h := 0; h < tilePanels; h++ {
		panel := b[h*dim*PanelRows : (h+1)*dim*PanelRows]
		for r := 0; r < PanelRows; r++ {
			var s0, s1, s2, s3 float64
			for k := 0; k < len(panel); k += PanelRows {
				x, c := a[k+r], (*[PanelRows]float64)(panel[k:])
				s0 += float64(x * c[0])
				s1 += float64(x * c[1])
				s2 += float64(x * c[2])
				s3 += float64(x * c[3])
			}
			o := out[r*tileCols+h*PanelRows:][:PanelRows]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
}

// dotColsGeneric writes to out[4t+r] the dot of the stored row ct with row r
// of the panel q. The four rows are equally long and len(q) is 4 times that.
func dotColsGeneric(q, c0, c1, c2, c3 []float64, out *[blockCells]float64) {
	for t, c := range [PanelRows][]float64{c0, c1, c2, c3} {
		q := q[:len(c)*PanelRows]
		var s0, s1, s2, s3 float64
		for k, x := range c {
			r := (*[PanelRows]float64)(q[k*PanelRows:])
			s0 += float64(x * r[0])
			s1 += float64(x * r[1])
			s2 += float64(x * r[2])
			s3 += float64(x * r[3])
		}
		o := out[t*PanelRows : (t+1)*PanelRows]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
}
