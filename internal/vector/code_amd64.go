package vector

// codeMaxDotsAsm runs the AVX2 body into out when it applies — AVX2
// selected and dim a positive multiple of sixteen — and reports whether it
// did.
func codeMaxDotsAsm(q []int16, c []int8, dim int, out *[PanelRows]int32) bool {
	if !useAVX2 || dim == 0 || dim%16 != 0 {
		return false
	}
	codeMaxDotsAVX2(q, c, dim, out)
	return true
}

// codeMaxDotsAVX2 writes to out[r] the largest dot of query row r with any
// stored row of c, MinInt32 for none; dim is a positive multiple of sixteen.
//
//go:noescape
func codeMaxDotsAVX2(q []int16, c []int8, dim int, out *[PanelRows]int32)
