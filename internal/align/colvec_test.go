package align

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// resetColumnVectors empties the process's memo, zeroes its counts and sets
// its bound for the rest of the test.
func resetColumnVectors(t *testing.T, limit int) {
	t.Helper()
	set := func(limit int) {
		columnVectors.Lock()
		clear(columnVectors.m)
		columnVectors.n, columnVectors.limit = ColumnVectorCounts{}, limit
		columnVectors.Unlock()
	}
	set(limit)
	t.Cleanup(func() { set(columnVectorBytes) })
}

// emptyColumnVectors drops what the memo holds and keeps its traffic counts.
func emptyColumnVectors() {
	columnVectors.Lock()
	clear(columnVectors.m)
	columnVectors.n.Bytes = 0
	columnVectors.Unlock()
}

// referenceEmbedColumns is EmbedColumns as it was before the memo: the corpus
// built over every column of the universe on every call, every column encoded
// against it. The memo must only decide when a vector is computed, never what
// it is, so this is what every test here compares with.
func referenceEmbedColumns(query *table.Table, tables []*table.Table, enc embed.ColumnEncoder) []Column {
	var corpus tokenize.Corpus
	all := append([]*table.Table{query}, tables...)
	for _, t := range all {
		for i := range t.Columns {
			corpus.AddDocument(embed.ColumnTokens(&t.Columns[i]))
		}
	}
	var out []Column
	for ti, t := range all {
		for i := range t.Columns {
			v, _ := enc.EncodeColumn(&t.Columns[i], func() *tokenize.Corpus { return &corpus })
			out = append(out, Column{Table: t.Name, Index: i, Name: t.Columns[i].Name, IsQuery: ti == 0, Vec: v})
		}
	}
	return out
}

// diffBits describes the first difference between two embeddings of one
// universe, vectors compared bit for bit; "" if there is none.
func diffBits(got, want []Column) string {
	if len(got) != len(want) {
		return fmt.Sprintf("universe of %d columns, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Table != w.Table || g.Index != w.Index || g.Name != w.Name || g.IsQuery != w.IsQuery || len(g.Vec) != len(w.Vec) {
			return fmt.Sprintf("column %d is %s.%d %q query=%v dim %d, want %s.%d %q query=%v dim %d", i,
				g.Table, g.Index, g.Name, g.IsQuery, len(g.Vec), w.Table, w.Index, w.Name, w.IsQuery, len(w.Vec))
		}
		for j := range g.Vec {
			if math.Float64bits(g.Vec[j]) != math.Float64bits(w.Vec[j]) {
				return fmt.Sprintf("column %d (%s.%s) element %d = %x, want %x", i, g.Table, g.Name, j,
					math.Float64bits(g.Vec[j]), math.Float64bits(w.Vec[j]))
			}
		}
	}
	return ""
}

// sameBits fails the test unless got is want bit for bit.
func sameBits(t *testing.T, what string, got, want []Column) {
	t.Helper()
	if msg := diffBits(got, want); msg != "" {
		t.Fatalf("%s: %s", what, msg)
	}
}

// dirtySpec is the lake of the exactness tests: 200 tables with every dirty
// mode on, so null, empty, unicode and mixed-type cells all reach the encoder.
var dirtySpec = datagen.LakeSpec{Seed: 19, Tables: 200, Rows: 12, FKFraction: 0.3,
	Dirty: datagen.DirtySpec{MixedTypes: 0.05, Unicode: 0.05, Null: 0.05, Empty: 0.05}}

// universe is the i-th alignment input over tabs: a generated query and ten
// tables at a stride, so that consecutive universes overlap in part.
func universe(spec datagen.LakeSpec, tabs []*table.Table, i int) (*table.Table, []*table.Table) {
	pick := make([]*table.Table, 10)
	for j := range pick {
		pick[j] = tabs[(i*7+j*3)%len(tabs)]
	}
	return spec.Query(i), pick
}

// memoEncoders are interleaved universe by universe: the two RoBERTa
// column-level encoders share Name() and differ only in fingerprint, so a
// memo keyed by name would hand one the other's vectors.
func memoEncoders() []embed.ColumnEncoder {
	return []embed.ColumnEncoder{
		embed.ColumnLevel{Model: embed.NewRoBERTa()},
		embed.ColumnLevel{Model: embed.NewRoBERTa(embed.WithAnisotropy(0.05))},
		embed.CellLevel{Model: embed.NewSBERT()},
	}
}

// TestColumnVectorMemoExact: whatever the memo holds — everything so far,
// nothing, or the few vectors a shrunken bound leaves — EmbedColumns returns
// the bits of a fresh encode, and never holds more than its bound.
func TestColumnVectorMemoExact(t *testing.T) {
	tabs := dirtySpec.Generate().Tables()
	encs := memoEncoders()
	if encs[0].Name() != encs[1].Name() || encs[0].Fingerprint() == encs[1].Fingerprint() {
		t.Fatalf("encoders 0 and 1 must share a name and differ in fingerprint: %q/%q, %q/%q",
			encs[0].Name(), encs[1].Name(), encs[0].Fingerprint(), encs[1].Fingerprint())
	}
	const vec = 8 * embed.DefaultDim
	for _, regime := range []struct {
		name       string
		limit      int
		emptyFirst bool
	}{
		{"warm", columnVectorBytes, false},
		{"emptied before every call", columnVectorBytes, true},
		{"bound of 5 vectors", 5 * vec, false},
		{"bound of 64 vectors", 64 * vec, false},
	} {
		t.Run(regime.name, func(t *testing.T) {
			resetColumnVectors(t, regime.limit)
			for i := 0; i < 60; i++ {
				if regime.emptyFirst {
					emptyColumnVectors()
				}
				q, pick := universe(dirtySpec, tabs, i)
				enc := encs[i%len(encs)]
				sameBits(t, fmt.Sprintf("universe %d, %s", i, enc.Fingerprint()),
					EmbedColumns(q, pick, enc), referenceEmbedColumns(q, pick, enc))
				if n := ColumnVectorStats(); n.Bytes > regime.limit || n.Bytes != heldBytes() {
					t.Fatalf("after universe %d the memo reports %d bytes, holds %d, bound %d", i, n.Bytes, heldBytes(), regime.limit)
				}
			}
			n := ColumnVectorStats()
			t.Logf("%+v", n)
			switch {
			case regime.emptyFirst && n.Hits != 0:
				t.Errorf("%d hits on a memo emptied before every call", n.Hits)
			case regime.limit == columnVectorBytes && !regime.emptyFirst && (n.Hits == 0 || n.Evicted != 0):
				t.Errorf("warm memo: %d hits, %d evictions, want hits and no eviction", n.Hits, n.Evicted)
			case regime.limit == 5*vec && (n.Evicted == 0 || n.Bytes != regime.limit):
				t.Errorf("shrunken memo: %d evictions, %d bytes held, want evictions and a full memo", n.Evicted, n.Bytes)
			case regime.limit == 64*vec && (n.Evicted == 0 || n.Hits == 0):
				t.Errorf("shrunken memo: %d evictions, %d hits, want both: random eviction must leave some of a universe's vectors to the next that shares them", n.Evicted, n.Hits)
			}
		})
	}
}

// heldBytes recounts the bytes of the vectors the memo holds.
func heldBytes() int {
	columnVectors.Lock()
	defer columnVectors.Unlock()
	n := 0
	for _, e := range columnVectors.m {
		n += 8 * len(e.vec)
	}
	return n
}

// TestColumnVectorMemoFollowsTableIdentity: the key is the table object, so a
// DELETE and a PUT of the same name with other content — a new object — gets
// its own vectors with no epoch and no invalidation; a table written in place
// (against lake.Add's rule) is caught by the header / row-count guard.
func TestColumnVectorMemoFollowsTableIdentity(t *testing.T) {
	resetColumnVectors(t, columnVectorBytes)
	spec := datagen.LakeSpec{Seed: 23, Tables: 12, Rows: 12}
	l := spec.Generate()
	enc := embed.ColumnLevel{Model: embed.NewRoBERTa()}
	q := spec.Query(3)
	name := spec.TableName(3)

	before := EmbedColumns(q, []*table.Table{l.Get(name)}, enc)
	sameBits(t, "first read", EmbedColumns(q, []*table.Table{l.Get(name)}, enc), before)
	if n := ColumnVectorStats(); n.Hits != uint64(l.Get(name).NumCols()) {
		t.Fatalf("second embedding of %s: %d hits, want one per column (%d)", name, n.Hits, l.Get(name).NumCols())
	}

	// A reader of the old snapshot keeps the old object; the mutated shadow
	// gets another under the same name.
	shadow := l.Clone()
	if err := shadow.Remove(name); err != nil {
		t.Fatal(err)
	}
	put := spec.Table(7)
	put.Name = name
	if err := shadow.Add(put); err != nil {
		t.Fatal(err)
	}
	after := EmbedColumns(q, []*table.Table{shadow.Get(name)}, enc)
	sameBits(t, "after DELETE + PUT", after, referenceEmbedColumns(q, []*table.Table{put}, enc))
	sameBits(t, "old snapshot after DELETE + PUT", EmbedColumns(q, []*table.Table{l.Get(name)}, enc), before)
	if first := q.NumCols(); vector.Euclidean(after[first].Vec, before[first].Vec) == 0 {
		t.Fatal("the replacement's first column embeds like the one it replaced: the test needs other content")
	}

	// Writing a table in place breaks the rule the memo relies on; the guard
	// turns the commonest forms of it into a miss instead of a stale answer.
	old := l.Get(name)
	old.Columns[0].Values = append(old.Columns[0].Values, "appended in place")
	old.Columns[1].Name += " renamed in place"
	hits := ColumnVectorStats().Hits
	sameBits(t, "table written in place", EmbedColumns(q, []*table.Table{old}, enc), referenceEmbedColumns(q, []*table.Table{old}, enc))
	if got, want := ColumnVectorStats().Hits-hits, uint64(old.NumCols()-2); got != want {
		t.Errorf("%d hits on a table with two columns written in place, want %d", got, want)
	}
}

// words returns the tokens w<from> … w<to-1> as one cell value each.
func words(from, to int) []string {
	out := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, fmt.Sprintf("w%03d", i))
	}
	return out
}

// TestColumnVectorMemoOverBudget: a column past embed.TokenBudget is encoded
// against its universe's corpus, so its vector follows the universe — two
// universes, two vectors, each the one a fresh encode gives — and is never
// kept, while its within-budget neighbours are. No corpus is built for a
// universe without such a column.
func TestColumnVectorMemoOverBudget(t *testing.T) {
	resetColumnVectors(t, columnVectorBytes)
	big := &table.Table{Name: "big", Columns: []table.Column{
		{Name: "Description", Values: words(0, 600)}, // 600 distinct tokens, one each: TF-IDF order is IDF order
		{Name: "City", Values: []string{"Fresno", "Chicago"}},
	}}
	low := &table.Table{Name: "low", Columns: []table.Column{{Name: "Notes", Values: words(0, 300)}}}
	high := &table.Table{Name: "high", Columns: []table.Column{{Name: "Notes", Values: words(300, 600)}}}
	q := &table.Table{Name: "q", Columns: []table.Column{{Name: "City", Values: []string{"Austin"}}}}
	enc := embed.ColumnLevel{Model: embed.NewRoBERTa()}

	var vecs [2]vector.Vec
	for round := 0; round < 2; round++ {
		for u, other := range []*table.Table{low, high} {
			tabs := []*table.Table{big, other}
			got := EmbedColumns(q, tabs, enc)
			sameBits(t, fmt.Sprintf("round %d, universe with %s", round, other.Name), got, referenceEmbedColumns(q, tabs, enc))
			vecs[u] = got[1].Vec // q has one column; big's first follows it
		}
	}
	if vector.Euclidean(vecs[0], vecs[1]) == 0 {
		t.Error("the over-budget column has one vector in two universes whose corpora rank its tokens differently")
	}
	n := ColumnVectorStats()
	if n.Unstorable != 4 || n.Misses != 3 || n.Hits != 5 {
		t.Errorf("counts %+v, want 4 unstorable (big.Description, every time), 3 misses (big.City, low.Notes, high.Notes) and 5 hits", n)
	}
	columnVectors.Lock()
	_, kept := columnVectors.m[columnKey{enc.Fingerprint(), big, 0}]
	columnVectors.Unlock()
	if kept {
		t.Error("the over-budget column's vector was kept")
	}

	// The corpus is built only when some column needs it.
	for _, c := range []struct {
		tabs []*table.Table
		want int
	}{{[]*table.Table{low, high}, 0}, {[]*table.Table{low, big}, 1}} {
		calls := 0
		embedUniverse(q, c.tabs, func(t *table.Table, corpus func() *tokenize.Corpus) []vector.Vec {
			vecs := make([]vector.Vec, t.NumCols())
			for i := range t.Columns {
				vecs[i], _ = enc.EncodeColumn(&t.Columns[i], func() *tokenize.Corpus { calls++; return corpus() })
			}
			return vecs
		})
		if calls != c.want {
			t.Errorf("universe of %d tables: corpus asked for %d times, want %d", len(c.tabs), calls, c.want)
		}
	}
}

// TestColumnVectorMemoSkipsQuery: the query's columns are new with every
// request, so they are encoded every time and never kept — not even when the
// query object is embedded twice.
func TestColumnVectorMemoSkipsQuery(t *testing.T) {
	resetColumnVectors(t, columnVectorBytes)
	q, tabs := benchUniverse()
	enc := embed.ColumnLevel{Model: embed.NewRoBERTa()}
	lakeCols := 0
	for _, tb := range tabs {
		lakeCols += tb.NumCols()
	}
	for round := 1; round <= 2; round++ {
		EmbedColumns(q, tabs, enc)
		columnVectors.Lock()
		for k := range columnVectors.m {
			if k.table == q {
				t.Errorf("round %d: the memo keeps query column %d", round, k.index)
			}
		}
		columnVectors.Unlock()
		if n := ColumnVectorStats(); n.Hits+n.Misses+n.Unstorable != uint64(round*lakeCols) {
			t.Errorf("round %d: %+v counts %d columns, want the %d lake columns only", round, n, n.Hits+n.Misses+n.Unstorable, round*lakeCols)
		}
	}
}

// TestColumnVectorMemoConcurrent: eight requests embedding overlapping
// universes side by side — at a bound small enough that they evict each
// other's vectors — each get what a lone request gets.
func TestColumnVectorMemoConcurrent(t *testing.T) {
	tabs := dirtySpec.Generate().Tables()
	encs := memoEncoders()
	const universes = 24
	type input struct {
		q    *table.Table
		tabs []*table.Table
		enc  embed.ColumnEncoder
	}
	in := make([]input, universes)
	want := make([][]Column, universes)
	for i := range in {
		q, pick := universe(dirtySpec, tabs, i)
		in[i] = input{q, pick, encs[i%len(encs)]}
		want[i] = referenceEmbedColumns(q, pick, in[i].enc)
	}
	for _, limit := range []int{columnVectorBytes, 40 * 8 * embed.DefaultDim} {
		resetColumnVectors(t, limit)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < universes; r++ {
					i := (r + 3*g) % universes
					got := EmbedColumns(in[i].q, in[i].tabs, in[i].enc)
					if msg := diffBits(got, want[i]); msg != "" {
						t.Errorf("goroutine %d, universe %d, bound %d: %s", g, i, limit, msg)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if n := ColumnVectorStats(); n.Bytes > limit || n.Bytes != heldBytes() {
			t.Errorf("bound %d: the memo reports %d bytes and holds %d", limit, n.Bytes, heldBytes())
		}
	}
}

// TestColumnVectorsNeverWritten: a vector is shared by reference between the
// memo and every request that read it, so nothing downstream may write one.
// 200 alignments (embed, cluster, map, union) at a bound that keeps evicting
// leave every vector handed out earlier with the bits it was handed out with.
func TestColumnVectorsNeverWritten(t *testing.T) {
	resetColumnVectors(t, 60*8*embed.DefaultDim)
	spec := datagen.LakeSpec{Seed: 29, Tables: 40, Rows: 12}
	tabs := spec.Generate().Tables()
	enc := embed.ColumnLevel{Model: embed.NewRoBERTa()}
	type handedOut struct {
		vec  vector.Vec
		bits []uint64
	}
	var out []handedOut
	for i := 0; i < 200; i++ {
		q, pick := universe(spec, tabs, i)
		cols := EmbedColumns(q, pick, enc)
		for _, c := range cols {
			bits := make([]uint64, len(c.Vec))
			for j, x := range c.Vec {
				bits[j] = math.Float64bits(x)
			}
			out = append(out, handedOut{c.Vec, bits})
		}
		headers, mappings, err := HolisticWorkers(cols, 2).Mappings(q, pick)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := table.OuterUnion("u", headers, mappings); err != nil {
			t.Fatal(err)
		}
	}
	if n := ColumnVectorStats(); n.Hits == 0 || n.Evicted == 0 {
		t.Fatalf("%+v: the run must both read vectors back and evict some", n)
	}
	for i, h := range out {
		for j, x := range h.vec {
			if math.Float64bits(x) != h.bits[j] {
				t.Fatalf("vector %d of %d handed out was written afterwards (element %d)", i, len(out), j)
			}
		}
	}
}
