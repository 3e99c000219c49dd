package dust

import (
	"context"
	"math"
	"testing"
	"time"

	"dust/internal/align"
	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/search"
	"dust/internal/table"
)

// columnVectorTraffic searches queries 0..n-1 of a fresh spec lake once each
// and returns what the searches added to the column-vector memo's counts. The
// lake's table objects are new, so the memo starts empty as far as these
// searches can tell, whatever earlier tests left in it.
func columnVectorTraffic(t *testing.T, spec datagen.LakeSpec, n int) align.ColumnVectorCounts {
	t.Helper()
	p := New(spec.Generate(), WithWorkers(1))
	n0 := align.ColumnVectorStats()
	for i := 0; i < n; i++ {
		// A generated query may align with nothing (422 when served); the
		// columns it embedded still count.
		_, _ = p.Search(spec.Query(i), 10)
	}
	n1 := align.ColumnVectorStats()
	return align.ColumnVectorCounts{
		Hits: n1.Hits - n0.Hits, Misses: n1.Misses - n0.Misses,
		Unstorable: n1.Unstorable - n0.Unstorable, Evicted: n1.Evicted - n0.Evicted,
	}
}

// TestColumnVectorHitShare pins the traffic claim of align's column-vector
// memo (docs/ARCHITECTURE.md, "Column vectors") on traffic that does not
// repeat: 40 different queries of a 120x40 LakeSpec lake, each searched once
// from an empty memo, read back two thirds of the lake-column vectors they
// need, because different queries retrieve the same tables. Measured 0.776
// (1 618 hits, 467 misses); the floor leaves room for a change of generator.
func TestColumnVectorHitShare(t *testing.T) {
	spec := datagen.LakeSpec{Seed: 7, Tables: 120, Rows: 40}
	one := columnVectorTraffic(t, spec, 40)
	share := float64(one.Hits) / float64(one.Hits+one.Misses+one.Unstorable)
	t.Logf("%+v: hit share %.3f", one, share)
	if one.Hits+one.Misses < 1500 {
		t.Fatalf("only %d lake columns embedded by 40 searches; the set-up no longer exercises the memo", one.Hits+one.Misses)
	}
	if share < 0.65 {
		t.Errorf("hit share %.3f, want >= 0.65", share)
	}
	if one.Unstorable != 0 || one.Evicted != 0 {
		t.Errorf("%d corpus-dependent columns and %d evictions on a lake with no over-budget column and a working set far under the bound", one.Unstorable, one.Evicted)
	}
}

// TestColumnVectorsSurviveSearches: the memo's vectors are shared by
// reference with every search that reads them; 200 whole searches (alignment,
// union, tuple embedding, diversification) must leave each with the bits it
// was first handed out with.
func TestColumnVectorsSurviveSearches(t *testing.T) {
	spec := datagen.LakeSpec{Seed: 11, Tables: 60, Rows: 20}
	l := spec.Generate()
	p := New(l, WithWorkers(2))
	// The pipeline's default column encoder: same fingerprint, same vectors.
	cols := align.EmbedColumns(spec.Query(0), l.Tables(), embed.ColumnLevel{Model: embed.NewRoBERTa()})
	bits := make([][]uint64, len(cols))
	for i, c := range cols {
		for _, x := range c.Vec {
			bits[i] = append(bits[i], math.Float64bits(x))
		}
	}
	n0 := align.ColumnVectorStats()
	for i := 0; i < 200; i++ {
		_, _ = p.Search(spec.Query(i%50), 10)
	}
	if n := align.ColumnVectorStats(); n.Hits-n0.Hits < 200 || n.Evicted != n0.Evicted {
		t.Fatalf("200 searches read %d vectors back and evicted %d: the searches did not run on the vectors held here", n.Hits-n0.Hits, n.Evicted-n0.Evicted)
	}
	for i, c := range cols {
		for j, x := range c.Vec {
			if math.Float64bits(x) != bits[i][j] {
				t.Fatalf("vector of %s.%s was written by a search (element %d)", c.Table, c.Name, j)
			}
		}
	}
}

// TestTraceStagesCoverSearch: the trace's six stages account for a search
// — every stage runs on every search, and what is left (argument checks,
// the clock reads) is under a twentieth of SearchContext's wall time on a
// 120x40 lake.
func TestTraceStagesCoverSearch(t *testing.T) {
	spec := datagen.LakeSpec{Seed: 7, Tables: 120, Rows: 40}
	p := New(spec.Generate(), WithWorkers(1))
	var queries []*table.Table
	for i := 0; len(queries) < 20; i++ {
		// Skip the generated queries that align with nothing.
		q := spec.Query(i)
		if _, err := p.Search(q, 10); err == nil {
			queries = append(queries, q)
		}
	}
	var staged, wall int64
	for _, q := range queries {
		r := p.Prepare(q)
		tr := &r.Trace
		t0 := time.Now()
		if _, err := p.SearchRequest(context.Background(), r, 10); err != nil {
			t.Fatal(err)
		}
		wall += time.Since(t0).Nanoseconds()
		for st := range search.NumStages {
			ns := tr.NS[st].Load()
			if ns <= 0 {
				t.Fatalf("search of %s recorded no %s time", q.Name, st)
			}
			staged += ns
		}
	}
	share := float64(staged) / float64(wall)
	t.Logf("stages cover %.3f of %.1f ms over %d searches", share, float64(wall)/1e6, len(queries))
	if share < 0.95 || share > 1.0 {
		t.Errorf("the six stages = %.3f of SearchContext's wall time, want within [0.95, 1.00]", share)
	}
}
