package vector

// codeDotsHead runs the AVX2 body over the leading multiple of sixteen
// elements of every row and returns how far it got: 0 under the generic
// body.
func codeDotsHead(q []int16, c []int8, dim int, out []int32) int {
	head := dim &^ 15
	if !useAVX2 || head == 0 {
		return 0
	}
	codeDotsAVX2(q, c, dim, out)
	return head
}

// codeDotsAVX2 writes out[4j+r] for every stored row j of c, summing the
// first dim&^15 (> 0) elements.
//
//go:noescape
func codeDotsAVX2(q []int16, c []int8, dim int, out []int32)
