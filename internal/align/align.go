// Package align implements the column alignment phase of DUST (paper §3.3
// and Appendix A.1.1): all columns of the query table and the discovered
// unionable tables are embedded, clustered hierarchically under a
// cannot-link constraint (no two columns of one table may align), the
// number of clusters is chosen by silhouette coefficient, clusters without
// a query column are discarded, and the survivors define the outer-union
// mapping. A pairwise bipartite aligner (Starmie (B)) is provided as the
// Table 1 baseline.
package align

import (
	"fmt"
	"math"

	"dust/internal/cluster"
	"dust/internal/embed"
	"dust/internal/match"
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// Column is one embedded column in the alignment universe.
type Column struct {
	Table   string // owning table name
	Index   int    // column index within the owning table
	Name    string // column header
	IsQuery bool
	Vec     vector.Vec
}

// Ref identifies a column for ground-truth evaluation.
type Ref struct {
	Table string
	Index int
}

// Result of an alignment: clusters of column indices (into Cols), each
// containing exactly one query column after filtering.
type Result struct {
	Cols []Column
	// Clusters[i] lists indices into Cols; the cluster's query column
	// determines the output header.
	Clusters [][]int
	// Silhouette is the quality score of the chosen cut (NaN for the
	// bipartite aligner, which has no clustering step).
	Silhouette float64
}

// EmbedColumns builds the alignment universe from a query table and its
// unionable tables. A lake column within embed.TokenBudget is encoded once
// per process and read back from columnVectors afterwards; the query's
// columns are encoded every time. The per-universe TF-IDF corpus (the paper's
// representative-token selection) is built only when some column is over the
// budget, and such a column's vector is never kept. Every Vec has the bits of
// a fresh encode against the universe's corpus; it may be shared with other
// requests and must not be written.
func EmbedColumns(query *table.Table, tables []*table.Table, enc embed.ColumnEncoder) []Column {
	fp := enc.Fingerprint()
	return embedUniverse(query, tables, func(t *table.Table, corpus func() *tokenize.Corpus) []vector.Vec {
		vecs := make([]vector.Vec, t.NumCols())
		for i := range t.Columns {
			col, key := &t.Columns[i], columnKey{fp, t, i}
			if t != query {
				if vecs[i] = columnVectors.load(key, col); vecs[i] != nil {
					continue
				}
			}
			v, pure := enc.EncodeColumn(col, corpus)
			if t != query {
				columnVectors.store(key, col, v, pure)
			}
			vecs[i] = v
		}
		return vecs
	})
}

// EmbedColumnsStarmie is EmbedColumns for the Starmie encoder, whose
// embeddings are computed per table (each column mixes in its table's
// context); nothing of it is memoised.
func EmbedColumnsStarmie(query *table.Table, tables []*table.Table, enc embed.StarmieEncoder) []Column {
	return embedUniverse(query, tables, enc.EncodeTableColumns)
}

// embedUniverse embeds the query and the tables table by table: encode
// returns one vector per column of t. The corpus it offers encode is built on
// first use, over every column of the universe.
func embedUniverse(query *table.Table, tables []*table.Table, encode func(t *table.Table, corpus func() *tokenize.Corpus) []vector.Vec) []Column {
	all := append([]*table.Table{query}, tables...)
	var built *tokenize.Corpus
	corpus := func() *tokenize.Corpus {
		if built == nil {
			built = &tokenize.Corpus{}
			for _, t := range all {
				for i := range t.Columns {
					built.AddDocument(embed.ColumnTokens(&t.Columns[i]))
				}
			}
		}
		return built
	}
	var out []Column
	for ti, t := range all {
		for i, v := range encode(t, corpus) {
			out = append(out, Column{
				Table:   t.Name,
				Index:   i,
				Name:    t.Columns[i].Name,
				IsQuery: ti == 0,
				Vec:     v,
			})
		}
	}
	return out
}

// Holistic aligns columns by constrained agglomerative clustering with
// silhouette-selected cluster count, then keeps only clusters containing a
// query column (paper §3.3). It runs sequentially; HolisticWorkers fans the
// distance-matrix construction out.
func Holistic(cols []Column) *Result {
	return HolisticWorkers(cols, 1)
}

// HolisticWorkers is Holistic with the pairwise column-distance matrix —
// the alignment stage's quadratic hot spot — built by at most workers
// goroutines (<= 0 means the GOMAXPROCS default). The result is identical
// for every worker count.
func HolisticWorkers(cols []Column, workers int) *Result {
	numQuery := 0
	for _, c := range cols {
		if c.IsQuery {
			numQuery++
		}
	}
	res := &Result{Cols: cols}
	if len(cols) == 0 || numQuery == 0 {
		return res
	}

	vecs := make([]vector.Vec, len(cols))
	for i, c := range cols {
		vecs[i] = c.Vec
	}
	m := cluster.NewMatrixWorkers(vecs, vector.Euclidean, workers)
	dend := cluster.Agglomerative(m, cluster.Options{
		// Two columns of one table never align. The query is never a lake
		// table, even when it carries one's name (a query file from the
		// lake directory, or a /search body's "name").
		CannotLink: func(i, j int) bool {
			return cols[i].Table == cols[j].Table && cols[i].IsQuery == cols[j].IsQuery
		},
	})
	// Every query column must land in its own cluster (same-table
	// constraint), so no cut below numQuery clusters is feasible.
	labels, k, score := cluster.BestCut(m, dend, numQuery, len(cols)-1)
	res.Silhouette = score

	for _, members := range cluster.Members(labels, k) {
		hasQuery := false
		for _, idx := range members {
			if cols[idx].IsQuery {
				hasQuery = true
				break
			}
		}
		if hasQuery {
			res.Clusters = append(res.Clusters, members)
		}
	}
	return res
}

// Bipartite aligns each data lake table to the query independently with
// maximum-weight bipartite matching over cosine similarity (the Starmie (B)
// baseline, §6.2.3). Matches below minSim are dropped.
func Bipartite(cols []Column, minSim float64) *Result {
	res := &Result{Cols: cols}
	var queryIdx []int
	byTable := map[string][]int{}
	var tableOrder []string
	for i, c := range cols {
		if c.IsQuery {
			queryIdx = append(queryIdx, i)
			continue
		}
		if _, ok := byTable[c.Table]; !ok {
			tableOrder = append(tableOrder, c.Table)
		}
		byTable[c.Table] = append(byTable[c.Table], i)
	}
	if len(queryIdx) == 0 {
		return res
	}
	clusters := make([][]int, len(queryIdx))
	for qi, idx := range queryIdx {
		clusters[qi] = []int{idx}
	}
	for _, tn := range tableOrder {
		tcols := byTable[tn]
		w := make([][]float64, len(queryIdx))
		for qi, q := range queryIdx {
			w[qi] = make([]float64, len(tcols))
			for ti, c := range tcols {
				sim := vector.Cosine(cols[q].Vec, cols[c].Vec)
				if sim > minSim {
					w[qi][ti] = sim
				}
			}
		}
		as, _ := match.MaxWeight(w)
		for _, a := range as {
			clusters[a.Left] = append(clusters[a.Left], tcols[a.Right])
		}
	}
	res.Clusters = clusters
	res.Silhouette = math.NaN()
	return res
}

// Mappings converts an alignment result into outer-union mappings: the
// target schema is the query's headers and each unionable table maps its
// aligned columns onto them (paper Example 3/4). Tables contributing no
// aligned column are still included (all-null rows are then filtered by the
// caller if desired).
func (r *Result) Mappings(query *table.Table, tables []*table.Table) ([]string, []table.Mapping, error) {
	headers := query.Headers()
	// clusterOf[ref] = query column index of the cluster containing ref.
	clusterOf := map[Ref]int{}
	for _, members := range r.Clusters {
		queryCol := -1
		for _, idx := range members {
			if r.Cols[idx].IsQuery {
				if queryCol != -1 {
					return nil, nil, fmt.Errorf("align: cluster has two query columns (%s and %s)",
						headers[queryCol], r.Cols[idx].Name)
				}
				queryCol = r.Cols[idx].Index
			}
		}
		if queryCol == -1 {
			continue
		}
		for _, idx := range members {
			if !r.Cols[idx].IsQuery {
				clusterOf[Ref{r.Cols[idx].Table, r.Cols[idx].Index}] = queryCol
			}
		}
	}
	var mappings []table.Mapping
	for _, t := range tables {
		m := table.Mapping{Source: t, TargetToSource: make([]int, len(headers))}
		for i := range m.TargetToSource {
			m.TargetToSource[i] = -1
		}
		for ci := 0; ci < t.NumCols(); ci++ {
			if q, ok := clusterOf[Ref{t.Name, ci}]; ok {
				m.TargetToSource[q] = ci
			}
		}
		mappings = append(mappings, m)
	}
	return headers, mappings, nil
}
