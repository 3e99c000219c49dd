//go:build !amd64

package vector

func codeDotsHead(q []int16, c []int8, dim int, out []int32) int { return 0 }
