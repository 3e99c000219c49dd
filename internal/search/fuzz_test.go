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
// over-allocate. Seeds are the golden Starmie index and a freshly saved ANN
// graph (whose mutations explore the deep decoder paths), each also with a
// byte flipped deep in its body and cut short, the graph under an older
// header version, and envelope fragments.
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

	b := persistBench(f)
	// annHost stays pristine; each iteration loads into a throwaway
	// clone so no fuzz input's graph survives into later iterations —
	// a recorded crasher must reproduce on a fresh host.
	annHost := annStarmie(f, b.Lake)
	graph := saveANN(f, annHost)
	f.Add(graph)
	for _, valid := range [][]byte{starmie, graph} {
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)*3/4] ^= 0xFF
		f.Add(flipped)
		f.Add(valid[:len(valid)*2/3])
	}
	older := append([]byte(nil), graph...)
	older[7] = 2
	f.Add(older)

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
