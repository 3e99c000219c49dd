//go:build !amd64

package vector

func codeMaxDotsAsm(q []int16, c []int8, dim int, out *[PanelRows]int32) bool { return false }
