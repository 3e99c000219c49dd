package search

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadIndex throws arbitrary bytes at both index loaders — the Starmie
// searcher codec and the HNSW candidate-graph codec: every input must
// return cleanly — a loaded index or a typed error — and never panic or
// over-allocate. Seeds are the golden index files (the Starmie index, whose
// mutations explore deep decoder paths, and the retired D3L and
// tuple-level kinds, which must keep failing typed), a freshly saved ANN
// graph, the legacy v2 SQ8 graph, and envelope fragments.
func FuzzLoadIndex(f *testing.F) {
	for _, name := range []string{"starmie", "d3l", "tuples"} {
		if data, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+".idx")); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("DSTIDX"))
	f.Add([]byte("DSTIDXS\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("DSTIDXA\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff"))

	b := persistBench(f)
	// annHost stays pristine; each iteration loads into a throwaway
	// clone so no fuzz input's graph survives into later iterations —
	// a recorded crasher must reproduce on a fresh host. The seed
	// corpus includes annHost's own valid graph so mutations explore
	// the deep graph-decoder paths.
	annHost := NewStarmie(b.Lake, WithMode(ANN))
	f.Add(saveANN(f, annHost))

	// The legacy side of the graph codec: the v2 SQ8 fixture, a copy with a
	// byte flipped deep in the node section (lands in scales, offsets and
	// codes, steering mutations at the validators that still read them),
	// and a truncation that cuts a node short.
	sq8, err := os.ReadFile(filepath.Join("testdata", "golden_ann_v2_sq8.idx"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sq8)
	flipped := append([]byte(nil), sq8...)
	flipped[len(flipped)*3/4] ^= 0xFF
	f.Add(flipped)
	f.Add(sq8[:len(sq8)*2/3])

	f.Fuzz(func(t *testing.T, data []byte) {
		// A successful load must yield a usable index; errors just return.
		if s, err := LoadStarmie(bytes.NewReader(data), b.Lake); err == nil {
			TopK(s, b.Queries[0], 3)
		}
		// Corrupt graph bytes must error, never panic; an accepted graph
		// must survive being searched.
		host := annHost.CloneWithLake(b.Lake).(*Starmie)
		if err := host.LoadANN(bytes.NewReader(data)); err == nil {
			TopK(host, b.Queries[0], 3)
		}
	})
}
