package ann

import (
	"bytes"
	"errors"
	"fmt"
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
		if ix.deleted[id] {
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
	if ix.Live() != 199 || !ix.deleted[17] {
		t.Fatalf("Live=%d Deleted(17)=%v after remove", ix.Live(), ix.deleted[17])
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
	got, err := Decode(sc)
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
// fail typed, never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid := encodeBytes(buildIndex(clusteredVecs(50, 8, 2, 51)))
	for cut := 0; cut < len(valid); cut += 7 {
		sc := codec.NewScanner(valid[:cut])
		if _, err := Decode(sc); err == nil && sc.Finish() == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}

	// Sanity: the well-formed payload decodes, so the rejections below test
	// the mutation and not the layout.
	if ix, err := Decode(codec.NewScanner(oneNode(8, 4, 0))); err != nil || ix.Len() != 1 {
		t.Fatalf("well-formed payload: %v", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"zero dim", oneNode(0, 4, 0)},
		{"huge M", oneNode(8, 1<<20, 0)},
		{"entry out of range", oneNode(8, 4, 9)},
	} {
		if _, err := Decode(codec.NewScanner(tc.data)); !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, codec.ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrCorrupt/ErrTruncated", tc.name, err)
		}
	}
}

// oneNode writes a one-node graph payload: one level-0 node without links
// under efConstruction 10 and seed 1.
func oneNode(dim, m, entry int) []byte {
	var b codec.Buffer
	for _, x := range []int{dim, m, 10} {
		b.Int(x)
	}
	b.Uvarint(1)
	for _, x := range []int{1, entry, 0, 0, 0} { // nodes, entry, max level, node level, layer 0 neighbors
		b.Int(x)
	}
	return b.Bytes()
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
