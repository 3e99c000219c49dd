package align

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dust/internal/cluster"
	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/vector"
)

// syntheticUniverse is an alignment input of q query columns and ten lake
// tables of width columns each, column c of every table drawn around query
// column c mod q, at dimension 32.
func syntheticUniverse(q, width int) (*table.Table, []*table.Table, []Column) {
	rng := rand.New(rand.NewSource(int64(q*100 + width)))
	centre := make([]vector.Vec, q)
	for i := range centre {
		centre[i] = make(vector.Vec, 32)
		for k := range centre[i] {
			centre[i][k] = rng.NormFloat64()
		}
	}
	near := func(c int) vector.Vec {
		v := vector.Clone(centre[c%q])
		for k := range v {
			v[k] += 0.4 * rng.NormFloat64()
		}
		return v
	}
	headers := func(n int) []string {
		h := make([]string, n)
		for i := range h {
			h[i] = fmt.Sprint("c", i)
		}
		return h
	}
	query := table.New("query", headers(q)...)
	var cols []Column
	for c := 0; c < q; c++ {
		cols = append(cols, Column{Table: query.Name, Index: c, Name: fmt.Sprint("c", c), IsQuery: true, Vec: near(c)})
	}
	tables := make([]*table.Table, 10)
	for ti := range tables {
		tables[ti] = table.New(fmt.Sprint("t", ti), headers(width)...)
		for c := 0; c < width; c++ {
			cols = append(cols, Column{Table: tables[ti].Name, Index: c, Name: fmt.Sprint("c", c), Vec: near(c)})
		}
	}
	return query, tables, cols
}

// TestHolisticAllocs: once warm, aligning a universe and mapping it
// allocates the same few objects at 65 columns and at 130 (twice the query
// columns, tables twice as wide): the distance matrix, the clustering and
// the silhouette sweep are the cluster package's recycled scratch, and
// Mappings allocates by table, not by column.
func TestHolisticAllocs(t *testing.T) {
	const limit = 16
	allocs := func(q, width int) float64 {
		query, tables, cols := syntheticUniverse(q, width)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := HolisticWorkers(cols, 1).Mappings(query, tables); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(5, 6), allocs(10, 12); small != big || big > limit {
		t.Errorf("HolisticWorkers(…).Mappings allocates %v objects over 65 columns and %v over 130, want the same, at most %d", small, big, limit)
	}
}

// alignment is what a search keeps of one alignment.
type alignment struct {
	clusters   [][]int
	silhouette uint64
	headers    []string
	mappings   []table.Mapping
}

func align(t *testing.T, query *table.Table, tables []*table.Table, cols []Column, workers int) alignment {
	res := HolisticWorkers(cols, workers)
	headers, mappings, err := res.Mappings(query, tables)
	if err != nil {
		t.Fatal(err)
	}
	return alignment{res.Clusters, math.Float64bits(res.Silhouette), headers, mappings}
}

// TestHolisticIgnoresScratchContents: with every cluster scratch given back
// filled with NaN and garbage (cluster.PoisonScratch), the alignments and
// mappings of a benchmark-shaped lake's universes — and of a synthetic one
// — are those computed before, under both kernel bodies, at workers 1 and
// 8, each universe aligned after another one dirtied the scratch.
func TestHolisticIgnoresScratchContents(t *testing.T) {
	spec, err := datagen.ParseLakeSpec("tables=120,rows=30,zipf=1.5,parents=11,fk=0.3,null=0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	s := search.NewStarmie(spec.Generate(), search.WithWorkers(1))
	enc := embed.ColumnLevel{Model: embed.NewRoBERTa()}
	type universe struct {
		query  *table.Table
		tables []*table.Table
		cols   []Column
		want   alignment
	}
	var us []*universe
	for i := 0; i < 12; i++ {
		q := spec.Query(i)
		u := &universe{query: q}
		for _, h := range search.TopK(s, q, 10) {
			u.tables = append(u.tables, h.Table)
		}
		u.cols = EmbedColumns(q, u.tables, enc)
		us = append(us, u)
	}
	q, tables, cols := syntheticUniverse(5, 6)
	us = append(us, &universe{query: q, tables: tables, cols: cols})
	for _, u := range us {
		u.want = align(t, u.query, u.tables, u.cols, 1)
	}
	defer cluster.PoisonScratch()()
	for _, generic := range []bool{false, true} {
		restore := func() {}
		if generic {
			restore = vector.ForceGenericKernel()
		}
		for _, workers := range []int{1, 8} {
			for i := len(us) - 1; i >= 0; i-- {
				u := us[i]
				if got := align(t, u.query, u.tables, u.cols, workers); !reflect.DeepEqual(got, u.want) {
					t.Errorf("%s (generic=%v, workers=%d): alignment over poisoned scratch differs", u.query.Name, generic, workers)
				}
			}
		}
		restore()
	}
}
