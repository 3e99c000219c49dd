package ann

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dust/internal/codec"
	"dust/internal/vector"
)

// randomUnit generates clustered unit vectors: `clusters` centers with
// small per-point noise, the geometry of a data lake full of near-copies.
func clusteredVecs(n, dim, clusters int, seed int64) []vector.Vec {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]vector.Vec, clusters)
	for i := range centers {
		c := make(vector.Vec, dim)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		centers[i] = vector.Normalize(c)
	}
	out := make([]vector.Vec, n)
	for i := range out {
		c := centers[i%clusters]
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = c[j] + 0.15*rng.NormFloat64()
		}
		out[i] = vector.Normalize(v)
	}
	return out
}

// bruteTopN is the exact oracle: ids sorted by (distance, id).
func bruteTopN(ix *Index, q vector.Vec, n int) []int {
	type di struct {
		d  float64
		id int
	}
	var all []di
	for id := 0; id < ix.Len(); id++ {
		if ix.Deleted(id) {
			continue
		}
		all = append(all, di{vector.SquaredEuclidean(q, ix.rows[id]), id})
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].d < all[j].d || (all[i].d == all[j].d && all[i].id < all[j].id)
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]int, len(all))
	for i, e := range all {
		out[i] = e.id
	}
	return out
}

func buildIndex(vecs []vector.Vec) *Index {
	ix := New(len(vecs[0]), Config{})
	for _, v := range vecs {
		ix.Add(v)
	}
	return ix
}

func TestSearchRecallVsBruteForce(t *testing.T) {
	vecs := clusteredVecs(2000, 32, 8, 7)
	ix := buildIndex(vecs)
	queries := clusteredVecs(50, 32, 8, 99)
	const k = 10
	hits, total := 0, 0
	for _, q := range queries {
		want := bruteTopN(ix, q, k)
		got := ix.Search(q, k, 100)
		in := make(map[int]bool, len(got))
		for _, id := range got {
			in[id] = true
		}
		for _, id := range want {
			total++
			if in[id] {
				hits++
			}
		}
	}
	if recall := float64(hits) / float64(total); recall < 0.95 {
		t.Fatalf("recall@%d = %.3f, want >= 0.95", k, recall)
	}
}

func TestSearchExactOnTinyIndex(t *testing.T) {
	// With ef >= n the beam covers everything reachable, so a small
	// index must return the exact nearest neighbors in exact order.
	vecs := clusteredVecs(40, 16, 3, 3)
	ix := buildIndex(vecs)
	for qi, q := range clusteredVecs(10, 16, 3, 4) {
		want := bruteTopN(ix, q, 5)
		got := ix.Search(q, 5, ix.Len())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: got %v, want %v", qi, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	vecs := clusteredVecs(500, 16, 4, 11)
	a, b := buildIndex(vecs), buildIndex(vecs)
	q := clusteredVecs(1, 16, 4, 12)[0]
	for _, n := range []int{1, 5, 20} {
		if ga, gb := a.Search(q, n, 64), b.Search(q, n, 64); !reflect.DeepEqual(ga, gb) {
			t.Fatalf("n=%d: two identical builds disagree: %v vs %v", n, ga, gb)
		}
	}
}

func TestRemoveTombstones(t *testing.T) {
	vecs := clusteredVecs(200, 16, 4, 21)
	ix := buildIndex(vecs)
	q := vecs[17]
	top := ix.Search(q, 1, 32)
	if len(top) != 1 || top[0] != 17 {
		t.Fatalf("self-search returned %v, want [17]", top)
	}
	if err := ix.Remove(17); err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove(17); err == nil {
		t.Fatal("double Remove did not error")
	}
	if err := ix.Remove(-1); err == nil {
		t.Fatal("Remove(-1) did not error")
	}
	if ix.Live() != 199 || !ix.Deleted(17) {
		t.Fatalf("Live=%d Deleted(17)=%v after remove", ix.Live(), ix.Deleted(17))
	}
	for _, id := range ix.Search(q, 50, 64) {
		if id == 17 {
			t.Fatal("tombstoned node surfaced in search results")
		}
	}
	// Results must match a brute-force scan that skips the tombstone.
	want := bruteTopN(ix, q, 5)
	got := ix.Search(q, 5, ix.Len())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-remove search %v, want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	vecs := clusteredVecs(100, 16, 2, 31)
	ix := buildIndex(vecs)
	q := vecs[3]
	before := ix.Search(q, 10, 64)

	cl := ix.Clone()
	if err := cl.Remove(before[0]); err != nil {
		t.Fatal(err)
	}
	extra := clusteredVecs(20, 16, 2, 32)
	for _, v := range extra {
		cl.Add(v)
	}
	after := ix.Search(q, 10, 64)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("mutating a clone changed the original: %v -> %v", before, after)
	}
	if cl.Len() != 120 || cl.Live() != 119 {
		t.Fatalf("clone Len=%d Live=%d, want 120/119", cl.Len(), cl.Live())
	}
}

func roundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	var b codec.Buffer
	ix.Encode(&b)
	sc := codec.NewScanner(b.Bytes())
	got, err := Decode(sc, 3)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := sc.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	got.BindRows(slices.Clip(ix.rows))
	return got
}

func TestCodecRoundTrip(t *testing.T) {
	vecs := clusteredVecs(300, 16, 4, 41)
	ix := buildIndex(vecs)
	got := roundTrip(t, ix)
	if got.Len() != ix.Len() || got.Edges() != ix.Edges() || got.Dim() != ix.Dim() {
		t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
			got.Len(), got.Edges(), got.Dim(), ix.Len(), ix.Edges(), ix.Dim())
	}
	q := clusteredVecs(1, 16, 4, 42)[0]
	if a, b := ix.Search(q, 10, 64), got.Search(q, 10, 64); !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip changed search results: %v vs %v", a, b)
	}
	// A decoded graph must keep growing exactly like the original.
	extra := clusteredVecs(10, 16, 4, 43)
	for _, v := range extra {
		ix.Add(v)
		got.Add(v)
	}
	if !bytes.Equal(encodeBytes(ix), encodeBytes(got)) {
		t.Fatal("post-decode growth diverged from the original graph")
	}

	empty := roundTrip(t, New(8, Config{}))
	if empty.Len() != 0 || empty.Search(make(vector.Vec, 8), 3, 8) != nil {
		t.Fatal("empty index did not round-trip to an empty index")
	}
	// The layout has no tombstones: encoding a graph that has some panics.
	defer func() {
		if recover() == nil {
			t.Error("Encode of a tombstoned graph did not panic")
		}
	}()
	if err := ix.Remove(5); err != nil {
		t.Fatal(err)
	}
	encodeBytes(ix)
}

// TestDecodeRejectsCorruption feeds Decode every truncation of a real graph
// and hand-written one-node payloads that each bend one field: all must
// fail typed, never panic. Version 1 payloads carried a float32 vector per
// node, which Decode still reads and validates before dropping it; the
// version 2 SQ8 vector has its own test below.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid := encodeBytes(buildIndex(clusteredVecs(50, 8, 2, 51)))
	for cut := 0; cut < len(valid); cut += 7 {
		sc := codec.NewScanner(valid[:cut])
		if _, err := Decode(sc, 3); err == nil && sc.Finish() == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}

	// Sanity: the well-formed payloads decode, so the rejections below test
	// the mutation and not the layout.
	for v, vec := range map[uint16]func(*codec.Buffer){1: floatVec(8), 3: nil} {
		if ix, err := Decode(codec.NewScanner(oneNode(v, 8, 4, 0, vec)), v); err != nil || ix.Len() != 1 {
			t.Fatalf("well-formed v%d payload: %v", v, err)
		}
	}
	for _, tc := range []struct {
		name    string
		version uint16
		data    []byte
	}{
		{"zero dim", 3, oneNode(3, 0, 4, 0, nil)},
		{"huge M", 3, oneNode(3, 8, 1<<20, 0, nil)},
		{"entry out of range", 3, oneNode(3, 8, 4, 9, nil)},
		{"short float vector", 1, oneNode(1, 8, 4, 0, floatVec(7))},
	} {
		if _, err := Decode(codec.NewScanner(tc.data), tc.version); !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, codec.ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrCorrupt/ErrTruncated", tc.name, err)
		}
	}
}

// TestDecodeRejectsQuantizedCorruption covers the legacy version 2 SQ8
// payload (a scale, an offset and dim int8 codes per node), which Decode
// still parses and validates before dropping it: each case bends one field,
// and every truncation of the well-formed payload must fail typed too.
func TestDecodeRejectsQuantizedCorruption(t *testing.T) {
	valid := oneNode(2, 8, 4, 0, sq8Vec(0.5, 0, 8))
	if ix, err := Decode(codec.NewScanner(valid), 2); err != nil || ix.Len() != 1 {
		t.Fatalf("well-formed v2 SQ8 payload: %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		sc := codec.NewScanner(valid[:cut])
		if _, err := Decode(sc, 2); err == nil && sc.Finish() == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"NaN scale", oneNode(2, 8, 4, 0, sq8Vec(nan, 0, 8))},
		{"Inf offset", oneNode(2, 8, 4, 0, sq8Vec(0.5, inf, 8))},
		{"negative scale", oneNode(2, 8, 4, 0, sq8Vec(-1, 0, 8))},
		{"truncated codes", oneNode(2, 8, 4, 0, sq8Vec(0.5, 0, 7))},
		{"oversized codes", oneNode(2, 8, 4, 0, sq8Vec(0.5, 0, 9))},
	} {
		if _, err := Decode(codec.NewScanner(tc.data), 2); !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, codec.ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrCorrupt/ErrTruncated", tc.name, err)
		}
	}
}

// oneNode writes a one-node graph file body in the given format version:
// one level-0 node without links under efConstruction 10 and seed 1; vec
// writes the vector a version 1 or 2 node carried.
func oneNode(version uint16, dim, m, entry int, vec func(*codec.Buffer)) []byte {
	var b codec.Buffer
	if version == 2 {
		b.Bool(true) // SQ8 storage
	}
	for _, x := range []int{dim, m, 10} {
		b.Int(x)
	}
	b.Uvarint(1)
	for _, x := range []int{1, entry, 0, 0} { // nodes, entry, max level, node level
		b.Int(x)
	}
	if version < 3 {
		b.Bool(false) // not a tombstone
		vec(&b)
	}
	b.Int(0) // layer 0: no neighbors
	return b.Bytes()
}

// floatVec writes a version 1 node's float32 vector of length n.
func floatVec(n int) func(*codec.Buffer) {
	return func(b *codec.Buffer) { b.Float32s(make([]float32, n)) }
}

// sq8Vec writes a version 2 node's SQ8 vector: scale, offset, then codes bytes.
func sq8Vec(scale, offset float32, codes int) func(*codec.Buffer) {
	return func(b *codec.Buffer) {
		b.Float32(scale)
		b.Float32(offset)
		b.RawBytes(make([]byte, codes))
	}
}

func encodeBytes(ix *Index) []byte {
	var b codec.Buffer
	ix.Encode(&b)
	return b.Bytes()
}

// Build must be a pure function of (vecs, cfg): the worker count may only
// change wall-clock time, never a single byte of the built graph. This is
// the contract that makes parallel builds shippable — a saved index is
// reproducible regardless of the machine that built it.
func TestBuildWorkersBitIdentical(t *testing.T) {
	vecs := clusteredVecs(1500, 24, 6, 71)
	base := encodeBytes(Build(24, vecs, Config{}, 1))
	for _, w := range []int{2, 4, 8} {
		if got := encodeBytes(Build(24, vecs, Config{}, w)); !bytes.Equal(base, got) {
			t.Fatalf("workers=%d built a different graph than workers=1", w)
		}
	}
}

// Below the warm prefix Build has no batches to run, so it must match a
// plain Add loop byte for byte — the parallel path is a strict extension
// of the sequential one, not a different algorithm.
func TestBuildMatchesSequentialAdd(t *testing.T) {
	vecs := clusteredVecs(200, 16, 4, 73)
	seq := buildIndex(vecs)
	par := Build(16, vecs, Config{}, 8)
	if !bytes.Equal(encodeBytes(seq), encodeBytes(par)) {
		t.Fatal("Build below the warm prefix diverged from sequential Add")
	}
}

// Compact and Clone must preserve search behaviour exactly: nodes keep
// their rows, so with an exhaustive beam the ranked results match modulo
// Compact's id remap.
func TestCompactClonePreservesSearch(t *testing.T) {
	vecs := clusteredVecs(400, 16, 4, 81)
	ix := Build(16, vecs, Config{}, 3)
	for _, id := range []int{3, 120, 377} {
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	queries := clusteredVecs(20, 16, 4, 82)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = ix.Search(q, 10, ix.Len())
	}

	cl := ix.Clone()
	remap := make(map[int]int)
	cp := ix.Compact(func(oldID, newID int) { remap[oldID] = newID })
	if cp.Len() != ix.Live() || cp.Live() != ix.Live() {
		t.Fatalf("compact Len=%d Live=%d, want %d live nodes", cp.Len(), cp.Live(), ix.Live())
	}
	for i, q := range queries {
		if got := cl.Search(q, 10, cl.Len()); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("query %d: clone results %v, want %v", i, got, want[i])
		}
		mapped := make([]int, len(want[i]))
		for j, id := range want[i] {
			mapped[j] = remap[id]
		}
		if got := cp.Search(q, 10, cp.Len()); !reflect.DeepEqual(got, mapped) {
			t.Fatalf("query %d: compact results %v, want %v (remapped from %v)", i, got, mapped, want[i])
		}
	}
}

// Search must stay allocation-lean: traversal state lives in a pooled
// scratch, so a query costs only the result slice and a handful of fixed
// allocations, independent of ef and graph size. The bound pins the
// scratch reuse — regressing to per-query beam/visited allocations blows
// straight through it.
func TestSearchAllocs(t *testing.T) {
	ix := Build(32, clusteredVecs(2000, 32, 8, 91), Config{}, 2)
	q := clusteredVecs(1, 32, 8, 92)[0]
	if allocs := testing.AllocsPerRun(100, func() { ix.Search(q, 10, 100) }); allocs > 8 {
		t.Errorf("%.1f allocs per Search, want <= 8", allocs)
	}
}

func BenchmarkSearch(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		vecs := clusteredVecs(n, 64, 10, 61)
		ix := buildIndex(vecs)
		q := clusteredVecs(1, 64, 10, 62)[0]
		b.Run(fmt.Sprintf("hnsw/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Search(q, 10, 100)
			}
		})
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bruteTopN(ix, q, 10)
			}
		})
	}
}

func BenchmarkBuild(b *testing.B) {
	vecs := clusteredVecs(5000, 64, 10, 63)
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(64, vecs, Config{}, w)
			}
		})
	}
}
