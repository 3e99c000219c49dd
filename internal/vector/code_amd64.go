package vector

// codeMaxDotsAsm runs the AVX2 body into out, and into dots when it is not
// nil, when it applies — AVX2 selected and dim a positive multiple of
// sixteen — and reports whether it did.
func codeMaxDotsAsm(q []int16, c []int8, dim int, dots []int32, out *[PanelRows]int32) bool {
	if !useAVX2 || dim == 0 || dim%16 != 0 {
		return false
	}
	codeMaxDotsAVX2(q, c, dim, dots, out)
	return true
}

// codeMaxDotsAVX2 writes to out[r] the largest dot of query row r with any
// stored row of c, MinInt32 for none, and, when dots is not nil, stored row
// j's four dots to dots[4j:4j+4]; dim is a positive multiple of sixteen.
//
//go:noescape
func codeMaxDotsAVX2(q []int16, c []int8, dim int, dots []int32, out *[PanelRows]int32)
