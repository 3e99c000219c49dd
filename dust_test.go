package dust

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/search"
	"dust/internal/table"
)

func benchLake(t *testing.T) (*datagen.Benchmark, *table.Table) {
	t.Helper()
	b := datagen.Generate("api-test", datagen.Config{
		Seed: 81, Domains: 4, TablesPerBase: 5, BaseRows: 60, MinRows: 15, MaxRows: 30,
	})
	return b, b.Queries[0]
}

func TestPipelineEndToEnd(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake)
	res, err := p.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples.NumRows() != 10 {
		t.Fatalf("result rows = %d, want 10", res.Tuples.NumRows())
	}
	if res.Tuples.NumCols() != q.NumCols() {
		t.Errorf("result cols = %d, want query schema %d", res.Tuples.NumCols(), q.NumCols())
	}
	if len(res.Provenance) != 10 {
		t.Errorf("provenance entries = %d", len(res.Provenance))
	}
	if len(res.UnionableTables) == 0 {
		t.Error("no unionable tables recorded")
	}
	if res.Unioned.NumRows() < 10 {
		t.Errorf("unioned pool smaller than k: %d", res.Unioned.NumRows())
	}
	// Provenance must reference retrieved tables only.
	retrieved := map[string]bool{}
	for _, n := range res.UnionableTables {
		retrieved[n] = true
	}
	for _, pv := range res.Provenance {
		if !retrieved[pv.Table] {
			t.Errorf("provenance table %s was not retrieved", pv.Table)
		}
	}
}

func TestPipelineMostlyRetrievesSameBase(t *testing.T) {
	// The lake has exactly 5 tables sharing the query's base, so retrieve
	// 5 and expect most of them to be the unionable ones.
	b, q := benchLake(t)
	res, err := New(b.Lake, WithTopTables(5)).Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameBase := 0
	for _, n := range res.UnionableTables {
		if lt := b.Lake.Get(n); lt != nil && lt.Base == q.Base {
			sameBase++
		}
	}
	if sameBase < 3 {
		t.Errorf("only %d/%d retrieved tables share the query base", sameBase, len(res.UnionableTables))
	}
}

func TestPipelineValidation(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake)
	if _, err := p.Search(nil, 5); err == nil {
		t.Error("nil query should error")
	}
	if _, err := p.Search(q, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := p.Search(q, -3); err == nil {
		t.Error("negative k should error")
	}
	empty := table.New("empty")
	if _, err := p.Search(empty, 5); err == nil {
		t.Error("query with no columns should error")
	}
}

func TestPipelineOptions(t *testing.T) {
	b, q := benchLake(t)
	p := New(b.Lake, WithTopTables(3))
	res, err := p.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnionableTables) != 3 {
		t.Errorf("retrieved %d tables, want 3 (WithTopTables)", len(res.UnionableTables))
	}
	if res.Tuples.NumRows() != 5 {
		t.Errorf("rows = %d", res.Tuples.NumRows())
	}

	// A non-positive bound keeps the default of 10 rather than unioning
	// the whole lake.
	def := New(b.Lake)
	for _, n := range []int{0, -1} {
		p := New(b.Lake, WithTopTables(n))
		if p.ConfigTag() != def.ConfigTag() {
			t.Errorf("WithTopTables(%d) tagged %q, want the default's %q", n, p.ConfigTag(), def.ConfigTag())
		}
		res, err := p.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.UnionableTables); got != 10 || b.Lake.Len() <= 10 {
			t.Errorf("WithTopTables(%d) retrieved %d of %d tables, want 10", n, got, b.Lake.Len())
		}
	}

	// Degraded halves the tables and never reaches 0; at one table it has
	// nothing cheaper, and its tag says so.
	for _, c := range []struct{ n, want int }{{10, 5}, {3, 1}, {1, 1}} {
		p := New(b.Lake, WithTopTables(c.n))
		d := p.Degraded()
		if d.topTables != c.want || (d.ConfigTag() == p.ConfigTag()) != (c.n == 1) {
			t.Errorf("Degraded of %d tables: %d tables tagged %q, receiver %q", c.n, d.topTables, d.ConfigTag(), p.ConfigTag())
		}
	}

	// WithShards is inert: the same tag, the same rankings and answers bit
	// for bit, and a byte-identical saved directory.
	sharded := New(b.Lake, WithShards(4))
	if sharded.ConfigTag() != def.ConfigTag() {
		t.Errorf("WithShards(4) tagged %q, want the default's %q", sharded.ConfigTag(), def.ConfigTag())
	}
	for _, k := range []int{1, 10, 0} {
		got, want := search.TopK(sharded.searcher, q, k), search.TopK(def.searcher, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: WithShards(4) ranked %d tables, the default %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i].Table != want[i].Table || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("k=%d: hit %d = (%s, %x), want (%s, %x)", k, i, got[i].Table.Name, got[i].Score, want[i].Table.Name, want[i].Score)
			}
		}
	}
	got, err := sharded.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := def.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "WithShards(4)", got, want)
	dirs := [2]string{filepath.Join(t.TempDir(), "sharded"), filepath.Join(t.TempDir(), "default")}
	for i, p := range []*Pipeline{sharded, def} {
		if err := p.SaveIndex(dirs[i]); err != nil {
			t.Fatal(err)
		}
	}
	savedSharded, errGot := os.ReadFile(filepath.Join(dirs[0], indexFile))
	savedDefault, errWant := os.ReadFile(filepath.Join(dirs[1], indexFile))
	if errGot != nil || errWant != nil || !bytes.Equal(savedSharded, savedDefault) {
		t.Errorf("WithShards(4) saved a different %s (%v, %v)", indexFile, errGot, errWant)
	}
	onlyIndexFile(t, dirs[0])
}

func TestPipelineDiverseBeatsSimilarBaseline(t *testing.T) {
	// Plant a near-duplicate of the query in the lake: the DUST pipeline
	// must not fill its result with the duplicate rows, while a
	// similarity-ranked selection would.
	q := table.New("q", "Park Name", "Supervisor", "Country")
	q.MustAppendRow("River Park", "Vera Onate", "USA")
	q.MustAppendRow("West Lawn Park", "Paul Veliotis", "USA")
	q.MustAppendRow("Hyde Park", "Jenny Rishi", "UK")

	dup := table.New("dup", "Park Name", "Supervisor", "Country")
	dup.MustAppendRow("River Park", "Vera Onate", "USA")
	dup.MustAppendRow("West Lawn Park", "Paul Veliotis", "USA")
	dup.MustAppendRow("Hyde Park", "Jenny Rishi", "UK")

	novel := table.New("novel", "Park Name", "Supervisor", "Country")
	novel.MustAppendRow("Chippewa Park", "Tim Erickson", "USA")
	novel.MustAppendRow("Lawler Park", "Enrique Garcia", "USA")
	novel.MustAppendRow("Cedar Grove", "Maria Silva", "Canada")

	l := lake.New("toy")
	l.MustAdd(dup)
	l.MustAdd(novel)

	res, err := New(l, WithTopTables(2)).Search(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	queryRows := map[string]bool{}
	for i := 0; i < q.NumRows(); i++ {
		queryRows[strings.Join(q.Row(i), "|")] = true
	}
	dupCount := 0
	for i := 0; i < res.Tuples.NumRows(); i++ {
		if queryRows[strings.Join(res.Tuples.Row(i), "|")] {
			dupCount++
		}
	}
	if dupCount > 1 {
		t.Errorf("diverse result contains %d query duplicates of 3 rows", dupCount)
	}
}

// countingSearcher is a Searcher that counts its Prepare calls.
type countingSearcher struct {
	search.Searcher
	prepares int
}

func (c *countingSearcher) Prepare(q *table.Table) search.PreparedQuery {
	c.prepares++
	return c.Searcher.Prepare(q)
}

// TestRevalidateEncodesOnlyToScore holds Revalidate to one query encode,
// and only when a table added since must be scored: a removal from the
// answer, deletions outside it, a ranking shorter than topTables and an add
// that is no longer indexed are all decided without one. The verdict on an
// add that is scored agrees with the full ranking.
func TestRevalidateEncodesOnlyToScore(t *testing.T) {
	b, q := benchLake(t)
	l := b.Lake.Clone()
	s := &countingSearcher{Searcher: search.NewStarmie(l)}
	p := New(l, WithSearcher(s), WithTopTables(3))
	var full []string
	for _, h := range search.TopK(s, q, 0) {
		full = append(full, h.Table.Name)
	}
	answer, added, outside := full[:3], full[3], full[len(full)-1]
	for _, c := range []struct {
		name            string
		tables, removed []string
		added           []string
		want            Staleness
		prepares        int
	}{
		{"a table of the answer removed", answer, []string{outside, answer[1]}, nil, TableRemoved, 0},
		{"deletions outside the answer", answer, []string{outside, "zz_gone"}, nil, Current, 0},
		{"an add since removed again", answer, nil, []string{"zz_gone"}, Current, 0},
		{"a short ranking", answer[:2], nil, []string{added}, Outranked, 0},
		{"an add ranked after the answer", answer, nil, []string{added, outside}, Current, 1},
		{"an add ranked into the answer", []string{answer[0], answer[1], added}, nil, []string{answer[2]}, Outranked, 1},
	} {
		s.prepares = 0
		if got := p.Revalidate(q, c.tables, c.removed, c.added); got != c.want || s.prepares != c.prepares {
			t.Errorf("%s: %v with %d query encodes, want %v with %d", c.name, got, s.prepares, c.want, c.prepares)
		}
	}
}
