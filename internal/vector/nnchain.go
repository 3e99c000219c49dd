package vector

import "math"

// The cluster kernels: the two loops of the nearest-neighbour chain under
// the cluster package's clusterings (Partition, BestPartition), over rows
// of its float32 working matrix. A row is dense over the slots [0, w); slot
// j is live while mask[j] is +0 and merged away once it is +Inf; live lists
// the live slots in ascending order; and a row's own (diagonal) cell is
// +Inf. By specification,
//
//	nearest  the lowest live j with the least row[j] under <, and the stored
//	         row[j]; -1 and +Inf when no live cell is below +Inf
//	average  rowA[k] = float32(float64(wa*float64(rowA[k])) + float64(wb*float64(rowB[k])))
//	         for every live k other than a and b
//
// Under strict < a NaN or +Inf cell is never chosen and a tie goes to the
// lowest slot, so a NaN that average writes is any NaN: Go does not fix
// which payload a sum of two NaNs keeps, and nothing depends on it. The
// generic bodies below are that specification, walking the live list. The
// AVX2 bodies (nnchain_amd64.s) walk the dense row instead:
// nearest adds the mask to eight cells at a time and keeps the VMINPS of the
// sums with the running minimum as the operand a NaN cannot displace, then
// returns the first slot whose sum equals it (VCMPPS, VMOVMSKPS, BSF) and
// the stored cell, not the sum (-0 + 0 is +0); average widens four cells at
// a time (VCVTPS2PD), multiplies twice and adds in separate instructions and
// narrows once (VCVTPD2PS) — the scalar operations in the scalar order, no
// FMA. It also writes the cells the specification leaves alone: a dead cell,
// which nearest masks to +Inf or NaN and nothing else reads, and the
// diagonal, which stays +Inf or NaN (wa > 0 times +Inf, plus anything) and is
// never chosen. A row that is not a whole number of register widths
// finishes in Go. useAVX2 (dot.go) selects the body, as it does for the
// cosine kernel.

// NearestLive returns nearest of row under mask and live (len(mask) ==
// len(row)).
func NearestLive(row, mask []float32, live []int) (int, float32) {
	return nearest(row, mask, live)
}

// AverageLinkage merges the cluster in slot b into the one in slot a: it
// writes average of rowA and rowB, with weights wa and wb (len(rowB) >=
// len(rowA)).
func AverageLinkage(rowA, rowB []float32, live []int, a, b int, wa, wb float64) {
	average(rowA, rowB, live, a, b, wa, wb)
}

func nearestGeneric(row []float32, live []int) (int, float32) {
	best, bestD := -1, float32(math.Inf(1))
	for _, j := range live {
		if row[j] < bestD {
			best, bestD = j, row[j]
		}
	}
	return best, bestD
}

// averageCell is one cell of average.
func averageCell(x, y float32, wa, wb float64) float32 {
	return float32(float64(wa*float64(x)) + float64(wb*float64(y)))
}

func averageGeneric(rowA, rowB []float32, live []int, a, b int, wa, wb float64) {
	for _, k := range live {
		if k != a && k != b {
			rowA[k] = averageCell(rowA[k], rowB[k], wa, wb)
		}
	}
}
