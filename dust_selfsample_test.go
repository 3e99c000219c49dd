package dust

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dust/internal/align"
	"dust/internal/datagen"
	"dust/internal/search"
	"dust/internal/table"
)

// selfSampled is what the default pipeline does with the first 120 queries
// of a benchmark-shaped lake, each a row sample of one lake table.
type selfSampled struct {
	failed          string // the queries Search refuses (422 when served), space-separated
	queryColumns    int
	singletons      int // query columns alignment leaves alone: all-null in every unioned tuple
	sourceOutside   int // queries whose source table is not among the ten retrieved
	losingAColumn   int // queries with at least one singleton column
	losingAllOfThem int
}

func measureSelfSampled(t *testing.T, tables, rows int) selfSampled {
	t.Helper()
	spec, err := datagen.ParseLakeSpec(fmt.Sprintf("tables=%d,rows=%d,zipf=1.5,parents=11,fk=0.3,null=0.01,seed=7", tables, rows))
	if err != nil {
		t.Fatal(err)
	}
	p := New(spec.Generate(), WithWorkers(1))
	var got selfSampled
	for i := 0; i < 120; i++ {
		q := spec.Query(i)
		if _, err := p.Search(q, 10); err != nil {
			got.failed = strings.TrimSpace(got.failed + " " + q.Name)
		}
		// The search and alignment stages again, as SearchContext runs them.
		var retrieved []*table.Table
		for _, h := range search.TopK(p.searcher, q, p.topTables) {
			retrieved = append(retrieved, h.Table)
		}
		if !slices.ContainsFunc(retrieved, func(t *table.Table) bool { return t.Name == spec.TableName(i) }) {
			got.sourceOutside++
		}
		alone := 0
		for _, members := range align.HolisticWorkers(align.EmbedColumns(q, retrieved, p.columnEnc), 1).Clusters {
			if len(members) == 1 {
				alone++
			}
		}
		got.queryColumns += q.NumCols()
		got.singletons += alone
		if alone > 0 {
			got.losingAColumn++
		}
		if alone == q.NumCols() {
			got.losingAllOfThem++
		}
	}
	return got
}

// TestSelfSampledQueriesUnion pins, digit for digit, how the default
// pipeline fails row samples of its own lake on the benchmark's tall and
// balanced shapes (seed 7, the benchmark's knobs): the queries it refuses,
// the query columns holistic alignment leaves in a cluster of their own, and
// the queries whose source table retrieval does not return. These are
// ROADMAP item 2's measurements, checked in the way TestShapeChecks pins
// knownGaps: the numbers are wrong answers, not goals, and the alignment fix
// is the change that edits them towards zero. Any other change that moves
// one has changed an answer.
func TestSelfSampledQueriesUnion(t *testing.T) {
	for _, tc := range []struct {
		name         string
		tables, rows int
		want         selfSampled
	}{
		{"tall", 300, 120, selfSampled{
			failed: "q00006 q00021 q00110", queryColumns: 535, singletons: 63,
			sourceOutside: 15, losingAColumn: 27, losingAllOfThem: 3}},
		{"balanced", 500, 40, selfSampled{
			queryColumns: 535, singletons: 8, sourceOutside: 5, losingAColumn: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := measureSelfSampled(t, tc.tables, tc.rows)
			if got != tc.want {
				t.Errorf("self-sampled queries on %dx%d\n got  %+v\n want %+v", tc.tables, tc.rows, got, tc.want)
			}
		})
	}
}

// TestQueryNamedLikeLakeTable requires a query's name to leave its answer
// alone: a row sample searched under its source table's name — as
// `dustsearch -query lake/t000011.csv` or a /search body's "name" gives it —
// returns the tuples, provenance and unionable tables it returns as "query".
// The name is not a table: the query's columns may still align with the
// same-named lake table's.
func TestQueryNamedLikeLakeTable(t *testing.T) {
	spec, err := datagen.ParseLakeSpec("tables=120,rows=30,zipf=1.5,parents=11,fk=0.3,null=0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	p := New(spec.Generate(), WithWorkers(1))
	for i := 0; i < 20; i++ {
		q := spec.Query(i)
		want, wantErr := p.Search(q.Clone("query"), 10)
		got, err := p.Search(q.Clone(spec.TableName(i)), 10)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: error %v under its source's name, %v as \"query\"", q.Name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !slices.Equal(got.UnionableTables, want.UnionableTables) {
			t.Fatalf("%s: tables %v under its source's name, %v as \"query\"", q.Name, got.UnionableTables, want.UnionableTables)
		}
		if !slices.Equal(got.Tuples.Headers(), want.Tuples.Headers()) || !slices.EqualFunc(tableRows(got.Tuples), tableRows(want.Tuples), slices.Equal) {
			t.Fatalf("%s: tuples differ under its source's name", q.Name)
		}
		if !slices.Equal(got.Provenance, want.Provenance) {
			t.Fatalf("%s: provenance %v under its source's name, %v as \"query\"", q.Name, got.Provenance, want.Provenance)
		}
	}
}
