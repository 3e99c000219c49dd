package vector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// naiveNearest and naiveAverage are the cluster kernels' specification
// transcribed literally, over the dense row and its mask.
func naiveNearest(row, mask []float32) (int, float32) {
	best, bestD := -1, float32(math.Inf(1))
	for j := range row {
		if mask[j] == 0 && row[j] < bestD {
			best, bestD = j, row[j]
		}
	}
	return best, bestD
}

// sameCell is bit equality, except that every NaN is the same cell: Go does
// not fix which operand's payload a sum of two NaNs keeps (the compiler may
// swap them, and does between two call sites of the same expression), and
// no NaN is ever chosen as a distance.
func sameCell(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

func naiveAverage(rowA, rowB, mask []float32, a, b int, wa, wb float64) {
	for k := range rowA {
		if mask[k] == 0 && k != a && k != b {
			rowA[k] = float32(float64(wa*float64(rowA[k])) + float64(wb*float64(rowB[k])))
		}
	}
}

// checkClusterKernels holds the selected body of both cluster kernels to the
// naive transcription, bitwise, on one row pair and mask. The rows are read
// at offset off of larger arrays, so the assembly meets addresses that are
// 4-byte but not 32-byte aligned, and a guard cell behind each must survive.
func checkClusterKernels(t testing.TB, rowA, rowB, mask []float32, off, a, b, sa, sb int) {
	n := len(rowA)
	inf := float32(math.Inf(1))
	var live []int
	for j, m := range mask {
		if m == 0 {
			live = append(live, j)
		}
	}
	place := func(v []float32) []float32 {
		buf := make([]float32, off+n+1)
		copy(buf[off:], v)
		buf[off+n] = 12345
		return buf[off : off+n]
	}
	row, m := place(rowA), place(mask)
	best, bestD := NearestLive(row, m, live)
	wantBest, wantD := naiveNearest(rowA, mask)
	if best != wantBest || math.Float32bits(bestD) != math.Float32bits(wantD) {
		t.Fatalf("%s body, nearest, %d slots at offset %d, live %v: (%d, %v), naive (%d, %v)\nrow %v",
			CosineKernel(), n, off, live, best, bestD, wantBest, wantD, rowA)
	}

	wa := float64(sa) / float64(sa+sb)
	wb := float64(sb) / float64(sa+sb)
	gotA, gotB := place(rowA), place(rowB)
	if n > 0 {
		gotA[a] = inf // the diagonal
	}
	want := append([]float32(nil), gotA...)
	AverageLinkage(gotA, gotB, live, a, b, wa, wb)
	naiveAverage(want, rowB, mask, a, b, wa, wb)
	for k := range want {
		if mask[k] == 0 && k != a && k != b && !sameCell(gotA[k], want[k]) {
			t.Fatalf("%s body, average, %d slots at offset %d, sizes %d+%d, cell %d: %v (%#x) from %v and %v, naive %v (%#x)",
				CosineKernel(), n, off, sa, sb, k, gotA[k], math.Float32bits(gotA[k]), rowA[k], rowB[k], want[k], math.Float32bits(want[k]))
		}
	}
	if n > 0 && !math.IsInf(float64(gotA[a]), 1) && !math.IsNaN(float64(gotA[a])) {
		t.Fatalf("%s body, average: the diagonal became %v", CosineKernel(), gotA[a])
	}
	for k := range rowB {
		if math.Float32bits(gotB[k]) != math.Float32bits(rowB[k]) {
			t.Fatalf("%s body, average: rowB[%d] was written", CosineKernel(), k)
		}
	}
	if gotA[:n+1][n] != 12345 || gotB[:n+1][n] != 12345 || m[:n+1][n] != 12345 {
		t.Fatalf("%s body, %d slots: a cell past the row was written", CosineKernel(), n)
	}
}

// sweepCluster is the cluster family's sweep: rows of 0 to 70 slots at
// every offset of a register, under four masks — all live, all dead,
// alternating, one live — on values drawn to tie exactly and to include +0,
// -0, +Inf (cannot-link) and NaN, with average-linkage weights from cluster
// sizes 1 to 64.
func sweepCluster(t *testing.T, rng *rand.Rand) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	pool := []float32{0, float32(math.Copysign(0, -1)), 0.25, 0.5, 0.5, 1, 2, inf, nan, 1e-40}
	draw := func(n int) []float32 {
		v := make([]float32, n)
		for k := range v {
			if rng.Intn(3) == 0 {
				v[k] = rng.Float32() * 2
			} else {
				v[k] = pool[rng.Intn(len(pool))]
			}
		}
		return v
	}
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			for trial := 0; trial < 6; trial++ {
				rowA, rowB := draw(n), draw(n)
				a, b := 0, 0
				if n > 0 {
					a, b = rng.Intn(n), rng.Intn(n)
				}
				sa, sb := 1+rng.Intn(64), 1+rng.Intn(64)
				for shape := 0; shape < 4; shape++ {
					mask := make([]float32, n)
					for j := range mask {
						switch {
						case shape == 1, shape == 2 && j%2 == 1, shape == 3 && j != (trial*7)%n:
							mask[j] = inf
						}
					}
					checkClusterKernels(t, rowA, rowB, mask, off, a, b, sa, sb)
				}
			}
		}
	}
}

// fuzzCluster gives the fuzzer the row length, the offset, the two cluster
// sizes, the mask and every bit of both rows — any float32, NaN payloads
// and -Inf included — for checkClusterKernels (a NaN matches any NaN).
func fuzzCluster(t *testing.T, in fuzzInput) {
	size, off, sa, sb := int(in.u8())%72, int(in.u8())%8, int(in.u8()), int(in.u8())
	maskBits := in.u64()
	rowA, rowB, mask := make([]float32, size), make([]float32, size), make([]float32, size)
	for k := 0; k < size; k++ {
		if len(in) >= 8 {
			raw := in.bytes(8)
			rowA[k] = math.Float32frombits(binary.LittleEndian.Uint32(raw))
			rowB[k] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4:]))
		}
		if maskBits>>(k%64)&1 == 1 {
			mask[k] = float32(math.Inf(1))
		}
	}
	a, b := 0, 0
	if size > 0 {
		a, b = sa%size, sb%size
	}
	checkClusterKernels(t, rowA, rowB, mask, off, a, b, 1+sa%64, 1+sb%64)
}
