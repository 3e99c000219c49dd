package search

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadIndex throws arbitrary bytes at the index loader, the Starmie
// searcher codec: every input must return cleanly — a loaded index or a
// typed error — and never panic or over-allocate. Seeds are the golden
// Starmie index, also with a byte flipped deep in its body, cut short,
// under the retired kind bytes (the HNSW graph's 'A', D3L's 'D', the
// tuple-level index's 'T') and under an older version, and envelope
// fragments.
func FuzzLoadIndex(f *testing.F) {
	starmie, err := os.ReadFile(filepath.Join("testdata", "golden_starmie.idx"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(starmie)
	f.Add([]byte{})
	f.Add([]byte("DSTIDX"))
	f.Add([]byte("DSTIDXS\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
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

	b := persistBench(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// A successful load must yield a usable index; errors just return.
		if s, err := LoadStarmie(bytes.NewReader(data), b.Lake); err == nil {
			TopK(s, b.Queries[0], 3)
		}
	})
}
