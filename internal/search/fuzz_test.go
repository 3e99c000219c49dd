package search

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dust/internal/match"
)

// FuzzLoadIndex throws arbitrary bytes at the index loader, the Starmie
// searcher codec: every input must return cleanly — a loaded index or a
// typed error — and never panic or over-allocate. Seeds are the golden
// Starmie index, also with a byte flipped deep in its body, cut short,
// under the retired kind bytes (the HNSW graph's 'A', D3L's 'D', the
// tuple-level index's 'T') and under an older version, envelope fragments,
// and an envelope with a valid CRC whose payload declares 2^22 tables and
// ends, so mutations start past the frame.
func FuzzLoadIndex(f *testing.F) {
	starmie, err := os.ReadFile(filepath.Join("testdata", "golden_starmie.idx"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(starmie)
	f.Add([]byte{})
	f.Add([]byte("DSTIDX"))
	f.Add([]byte("DSTIDXS\x02\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("DSTIDXA\x03\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	flipped := append([]byte(nil), starmie...)
	flipped[len(flipped)*3/4] ^= 0xFF
	f.Add(flipped)
	f.Add(starmie[:len(starmie)*2/3])
	for _, kind := range []byte{'A', 'D', 'T'} {
		retired := append([]byte(nil), starmie...)
		retired[6] = kind
		f.Add(retired)
	}
	older := append([]byte(nil), starmie...)
	older[7], older[8] = 0, 0
	f.Add(older)
	f.Add(hostileIndex(f, 1<<22))

	b := persistBench(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// A successful load must yield a usable index; errors just return.
		if s, err := LoadStarmie(bytes.NewReader(data), b.Lake); err == nil {
			TopK(s, b.Queries[0], 3)
		}
	})
}

// FuzzMatchingBound holds both sides of the exact scan's bound to the
// Hungarian total they bound, in floating point: over weight matrices of up
// to 8 x 8 cells in [0, 1] — raw fractions, or rounded to a few levels so
// that cells tie, and zeros where the input runs out — the total of
// match.Scratch.Solve is at most the row side summed in row order, with no
// margin (both sums run in row order, each matched cell at most its row's
// largest), and at most columnBound over the column maxima, whose margin
// covers the different orders; so the score is at most either over |Q|.
// The first three bytes pick the rows, the columns and the levels (0 for
// raw fractions), then each cell takes eight bytes.
func FuzzMatchingBound(f *testing.F) {
	f.Add([]byte{2, 2, 0})
	f.Add(append([]byte{5, 2, 3}, bytes.Repeat([]byte{0xff, 0x01, 0x80, 0x7f, 0x33, 0xc0, 0x0f, 0xa5}, 10)...))
	f.Add(append([]byte{7, 7, 0}, bytes.Repeat([]byte{0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a, 0x7c, 0x15}, 49)...))
	f.Add(append([]byte{3, 6, 1}, bytes.Repeat([]byte{0xff}, 8*18)...))
	// Thirds whose column maxima, summed in column order, round below the
	// Hungarian total summed in row order (1.9999999999999998 against 2):
	// without columnBound's margin the column side undercuts the matching.
	f.Add(matrixBytes(3, 3, 3, 1, 1.0/3, 1.0/3, 1.0/3, 1.0/3, 1.0/3, 1.0/3, 2.0/3, 0))
	var hung match.Scratch
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := append(append([]byte(nil), raw...), 0, 0, 0)
		nq, nc, levels := int(in[0])%8+1, int(in[1])%8+1, int(in[2])%5
		in = in[3:]
		w := make([]float64, nq*nc)
		for i := range w {
			var cell [8]byte
			in = in[copy(cell[:], in):]
			x := float64(binary.LittleEndian.Uint64(cell[:])>>11) * 0x1p-53
			if levels > 0 {
				x = math.Round(x*float64(levels)) / float64(levels)
			}
			w[i] = x
		}
		total := hung.Solve(w, nq, nc)
		var rows float64
		col := make([]float64, nc)
		for i := 0; i < nq; i++ {
			best := 0.0
			for j, x := range w[i*nc : (i+1)*nc] {
				best, col[j] = max(best, x), max(col[j], x)
			}
			rows += best
		}
		if bound := columnBound(col, nq); total > rows || total > bound {
			t.Fatalf("%d x %d matrix %v: Hungarian total %v above the row side %v or the column side %v", nq, nc, w, total, rows, bound)
		}
	})
}

// matrixBytes is FuzzMatchingBound's input for an nq x nc matrix at levels
// (0 for raw fractions) holding cells, each in [0, 1].
func matrixBytes(nq, nc, levels byte, cells ...float64) []byte {
	raw := []byte{nq - 1, nc - 1, levels}
	for _, x := range cells {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(min(x*0x1p53, 0x1p53-1))<<11)
	}
	return raw
}
