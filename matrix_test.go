package dust

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/match"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// matrixSeed draws the mutation history and the anchors' lake orders.
const matrixSeed = 29

// reference returns Algorithm 1's SearchTables from scratch over tables:
// Starmie's column embeddings of every table and of the query, each against
// a TF-IDF corpus of its own table's columns, one document a column, a
// fresh matrix of
// vector.Cosine cells above MinSim (0.3), match.MaxWeight divided by |Q|,
// and a sort by score descending, name ascending. There is no index, block,
// pool, memo or scan.
func reference(tables []*table.Table) func(q *table.Table) []search.Scored {
	enc := embed.NewStarmie()
	encode := func(t *table.Table) []vector.Vec {
		return enc.EncodeTableColumns(t, func() *tokenize.Corpus {
			corpus := &tokenize.Corpus{}
			for i := range t.Columns {
				corpus.AddDocument(embed.ColumnTokens(&t.Columns[i]))
			}
			return corpus
		})
	}
	cols := make([][]vector.Vec, len(tables))
	for i, t := range tables {
		cols[i] = encode(t)
	}
	return func(q *table.Table) []search.Scored {
		qc := encode(q)
		out := make([]search.Scored, len(tables))
		for i, t := range tables {
			w := make([][]float64, len(qc))
			for a := range w {
				w[a] = make([]float64, len(cols[i]))
				for b, c := range cols[i] {
					if sim := vector.Cosine(qc[a], c); sim > 0.3 {
						w[a][b] = sim
					}
				}
			}
			out[i].Table = t
			if _, total := match.MaxWeight(w); len(qc) > 0 {
				out[i].Score = total / float64(len(qc))
			}
		}
		slices.SortFunc(out, func(a, b search.Scored) int {
			return cmp.Or(cmp.Compare(b.Score, a.Score), strings.Compare(a.Table.Name, b.Table.Name))
		})
		return out
	}
}

// matrixLake is 600 tables at the benchmark's knobs with dirty modes on,
// plus the shapes the generator cannot draw: a table with no columns, an
// all-blank one, byte-identical copies of ten tables under other names (so
// equal scores meet the name tie-break) and a table over the encoder's
// token budget (so the TF-IDF selection runs). The queries are 16
// spec queries, three copied tables, the all-blank table and an
// over-budget table that ranks the lake's own one high.
func matrixLake() (datagen.LakeSpec, *lake.Lake, []*table.Table) {
	spec := datagen.LakeSpec{Name: "matrix", Seed: 7, Tables: 600, Rows: 12, ZipfS: 1.5, Parents: 11, FKFraction: 0.3,
		Dirty: datagen.DirtySpec{MixedTypes: 0.05, Unicode: 0.05, Null: 0.01, Empty: 0.05}}
	l := spec.Generate()
	var queries []*table.Table
	for i := 0; i < 16; i++ {
		queries = append(queries, spec.Query(37*i))
	}
	l.MustAdd(table.New("zz_nocols"))
	blank := table.New("zz_blank", "", "")
	for i := 0; i < 4; i++ {
		blank.MustAppendRow(table.Null, table.Null)
	}
	l.MustAdd(blank)
	for i := 0; i < 10; i++ {
		src := l.Tables()[20+37*i]
		l.MustAdd(src.Clone(fmt.Sprintf("aa_copy_%02d", i)))
		if i%4 == 0 {
			queries = append(queries, src.Clone("query"))
		}
	}
	l.MustAdd(overBudget("zz_over_budget", spec, 0))
	return spec, l, append(queries, blank.Clone("query"), overBudget("query", spec, 15))
}

// overBudget builds a table from the first rows of 30 spec tables, three
// times over: a column of each row's words, over embed.TokenBudget, and a
// column of its first cell, whose tokens the TF-IDF selection over the
// table's own columns ranks below the words found in one column alone.
func overBudget(name string, spec datagen.LakeSpec, from int) *table.Table {
	var rows [][]string
	for i := from; i < from+30; i++ {
		row := spec.Table(i).Row(0)
		rows = append(rows, []string{strings.Join(row, " "), row[0]})
	}
	t := table.New(name, "words", "lead")
	for range 3 {
		for _, row := range rows {
			t.MustAppendRow(row...)
		}
	}
	return t
}

// step is one mutation of the history: add a table, or remove one by name.
type step struct {
	add    *table.Table
	remove string
}

// drawHistory removes 360 of l's tables in a seeded order, well over half
// the lake, and adds 36 between them: 31 fresh spec tables, four it removed earlier, and a second
// over-budget table, which leaves again. The lake's own over-budget table
// stays, so its vectors must be a fresh build's at every step.
func drawHistory(rng *rand.Rand, spec datagen.LakeSpec, l *lake.Lake) []step {
	names := l.Names()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	names = slices.DeleteFunc(names, func(n string) bool { return n == "zz_over_budget" })
	var steps []step
	for i, name := range names[:360] {
		steps = append(steps, step{remove: name})
		switch {
		case i == 100:
			steps = append(steps, step{add: overBudget("zz_over_budget_2", spec, 300)})
		case i == 200:
			steps = append(steps, step{remove: "zz_over_budget_2"})
		case i%100 == 50:
			steps = append(steps, step{add: l.Get(names[i/2])})
		case i%12 == 5:
			steps = append(steps, step{add: spec.Table(spec.Tables + i)})
		}
	}
	return append(steps, step{add: spec.Table(spec.Tables + 360)})
}

// applyHistory runs steps from p through the pipeline's successors and
// returns the last. Halfway it asks for a duplicate add and an unknown
// remove, of the pipeline and of its searcher, which must return no
// successor and the typed errors and leave the epoch.
func applyHistory(t *testing.T, p *Pipeline, steps []step) *Pipeline {
	t.Helper()
	e0 := p.Epoch()
	for i, s := range steps {
		if i == len(steps)/2 {
			present, e := p.Lake().Tables()[0], p.Epoch()
			next, err0 := p.WithTable(present)
			next1, err1 := p.searcher.WithTable(present)
			next2, err2 := p.WithoutTable("zz_absent")
			next3, err3 := p.searcher.WithoutTable("zz_absent")
			if next != nil || next1 != nil || next2 != nil || next3 != nil {
				t.Fatalf("history step %d: a failed mutation returned a successor", i)
			}
			for _, c := range []struct{ err, want error }{
				{err0, lake.ErrDuplicateTable},
				{err1, lake.ErrDuplicateTable},
				{err2, lake.ErrUnknownTable},
				{err3, lake.ErrUnknownTable},
			} {
				if !errors.Is(c.err, c.want) || p.Epoch() != e {
					t.Fatalf("history step %d: err = %v at epoch %d, want %v at %d", i, c.err, p.Epoch(), c.want, e)
				}
			}
		}
		var err error
		if s.add != nil {
			p, err = p.WithTable(s.add)
		} else {
			p, err = p.WithoutTable(s.remove)
		}
		if err != nil {
			t.Fatalf("history step %d: %v", i, err)
		}
	}
	if p.Epoch() != e0+uint64(len(steps)) {
		t.Fatalf("epoch %d after %d mutations from %d", p.Epoch(), len(steps), e0)
	}
	return p
}

// config is one point of the matrix; its name leads with the retriever,
// the exact scan.
type config struct {
	state   string
	workers int
	generic bool
}

func (c config) String() string {
	return fmt.Sprintf("exact/%s/workers=%d/kernel=%s", c.state, c.workers,
		map[bool]string{false: "selected", true: "generic"}[c.generic])
}

// answers is what one configuration says: every query's ranking at every
// k (query-major) with the scan's exit counts, and in lines the bitwise
// digest of those rankings followed by the pipeline's first-pass answers.
// passes holds the pipeline's answers again, warm, through SearchContext
// under a cancellable context and through SearchBatch.
type answers struct {
	ks     []int
	hits   [][]search.Scored
	scans  [][search.ScanExits]int64
	lines  []string
	passes [2][]string
}

// ask collects p's answers to queries; the first three also go through the
// whole pipeline at k = 10.
func ask(p *Pipeline, queries []*table.Table) answers {
	a := answers{ks: []int{1, 10, p.Lake().Len(), 0}}
	for qi, q := range queries {
		pq := p.searcher.Prepare(q)
		for _, k := range a.ks {
			var tr search.Trace
			hits, err := p.searcher.TopKPrepared(context.Background(), pq, k, &tr)
			if err != nil {
				panic(err) // an uncancelled query cannot fail
			}
			line := fmt.Sprintf("query %d k=%d:", qi, k)
			for _, h := range hits {
				line += fmt.Sprintf(" %s=%x", h.Table.Name, h.Score)
			}
			a.hits, a.lines = append(a.hits, hits), append(a.lines, line)
			var scan [search.ScanExits]int64
			for exit := range scan {
				scan[exit] = tr.Scan[exit].Load()
			}
			a.scans = append(a.scans, scan)
		}
	}
	digest := func(res *Result, err error) string {
		if err != nil {
			return "no result"
		}
		return fmt.Sprintf("%v %v %q %q", res.UnionableTables, res.Provenance, res.Tuples.Rows(), res.Unioned.Rows())
	}
	pqs := queries[:3]
	for _, q := range pqs {
		a.lines = append(a.lines, digest(p.Search(q, 10)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batch, _ := p.SearchBatch(pqs, 10)
	for i, q := range pqs {
		a.passes[0] = append(a.passes[0], digest(p.SearchContext(ctx, q, 10)))
		a.passes[1] = append(a.passes[1], digest(batch[i], nil))
	}
	return a
}

// matrix is what the configurations are checked against: per table set
// (before and after the history) the reference's rankings and the answers
// of the anchor, a fresh one-worker exact pipeline over the set in
// shuffled order. The history's last tail steps run twice, from the
// pipeline where the tail begins and after a save and load of it. coded,
// column and cut count the tables the scan's code bound cut on its row side
// and on its column side, and its float64 bound cut.
type matrix struct {
	spec               datagen.LakeSpec
	l0                 *lake.Lake
	queries            []*table.Table
	steps              []step
	tail               int
	refs               [2][][]search.Scored
	anchors            [2]answers
	coded, column, cut int64
}

// check holds one configuration's answers to the reference's rankings of
// its table set, to its pipeline's other passes, and bitwise to want, the
// answers of a configuration that must agree with it (nil for none).
func (m *matrix) check(t *testing.T, c config, a answers, ref [][]search.Scored, want *answers) {
	t.Helper()
	n := len(ref[0])
	for i, hits := range a.hits {
		k, full := a.ks[i%len(a.ks)], ref[i/len(a.ks)]
		label := fmt.Sprintf("%s: query %d k=%d", c, i/len(a.ks), k)
		sc := a.scans[i]
		cut := sc[search.ScanCoded] + sc[search.ScanColumn] + sc[search.ScanBounded]
		if total := cut + sc[search.ScanGreedy] + sc[search.ScanMatched]; total != int64(n) || k <= 0 && cut != 0 {
			t.Fatalf("%s: the scan's exits %v cover %d of %d tables", label, sc, total, n)
		}
		m.coded, m.column, m.cut = m.coded+sc[search.ScanCoded], m.column+sc[search.ScanColumn], m.cut+sc[search.ScanBounded]
		if k > 0 {
			full = full[:min(k, n)]
		}
		if len(hits) != len(full) {
			t.Fatalf("%s: %d hits, reference %d", label, len(hits), len(full))
		}
		for j, h := range hits {
			if h.Table != full[j].Table || math.Abs(h.Score-full[j].Score) > 1e-12 {
				t.Fatalf("%s: hit %d = (%s, %v) out of reference order or score", label, j, h.Table.Name, h.Score)
			}
		}
	}
	for i, pass := range a.passes {
		for j, got := range pass {
			if first := a.lines[len(a.lines)-len(pass)+j]; got != first {
				t.Fatalf("%s: pipeline query %d through %s:\n%s\nfirst pass:\n%s", c, j, []string{"SearchContext", "SearchBatch"}[i], got, first)
			}
		}
	}
	for i := 0; want != nil && i < len(want.lines); i++ {
		if a.lines[i] != want.lines[i] {
			t.Fatalf("%s: answer %d differs bitwise:\n%s\nwant\n%s", c, i, a.lines[i], want.lines[i])
		}
	}
}

// lineage L takes a pipeline at workers [1, 8][L] through five states;
// state s runs on the generic kernel when s+L is even, so the two lineages
// run every state at both worker counts and under both kernel bodies.
// fresh is built over the lake. history runs the history from it through
// successors, keeping the one where the tail begins. original is fresh
// after its successors' history, which must answer as before. loaded saves
// the successor where the tail begins, loads it and runs the tail, which
// must leave it answering like history. compacted takes history through one
// more add and remove, so that its last mutation is a removal; it must
// answer like history. Every state answers like its anchor.
func (m *matrix) lineage(t *testing.T, L int) {
	anchor := [2]*answers{&m.anchors[0], &m.anchors[1]}
	s := 0
	state := func(name string, ref int, want *answers, build func(c config) *Pipeline) (*Pipeline, answers) {
		c := config{name, []int{1, 8}[L], (s+L)%2 == 0}
		s++
		var p *Pipeline
		var a answers
		func() {
			if c.generic {
				defer vector.ForceGenericKernel()() // also when build fails the test
			}
			p = build(c)
			a = ask(p.QueryBound(c.workers), m.queries)
		}()
		t.Run(c.String(), func(t *testing.T) { m.check(t, c, a, m.refs[ref], want) })
		return p, a
	}
	tail := m.steps[len(m.steps)-m.tail:]
	f, fa := state("fresh", 0, anchor[0], func(c config) *Pipeline {
		return New(m.l0.Clone(), WithWorkers(c.workers))
	})
	var mid *Pipeline
	h, ha := state("history", 1, anchor[1], func(config) *Pipeline {
		mid = applyHistory(t, f, m.steps[:len(m.steps)-m.tail])
		return applyHistory(t, mid, tail)
	})
	state("original", 0, &fa, func(config) *Pipeline {
		if f.Epoch() != 0 || f.Lake().Len() != m.l0.Len() {
			t.Fatalf("original at epoch %d over %d tables after its successors' history", f.Epoch(), f.Lake().Len())
		}
		return f
	})
	state("loaded", 1, &ha, func(c config) *Pipeline {
		dir := t.TempDir()
		if HasIndex(dir) {
			t.Fatal("an empty directory holds an index")
		}
		if err := mid.SaveIndex(dir); err != nil || !HasIndex(dir) {
			t.Fatalf("SaveIndex: %v", err)
		}
		p, err := LoadPipelineLake(mid.Lake().Clone(), dir, WithWorkers(c.workers))
		if err != nil {
			t.Fatal(err)
		}
		if p.ConfigTag() != mid.ConfigTag() || p.Epoch() != mid.Epoch() {
			t.Fatalf("loaded %q at epoch %d, saved %q at %d", p.ConfigTag(), p.Epoch(), mid.ConfigTag(), mid.Epoch())
		}
		return applyHistory(t, p, tail)
	})
	state("compacted", 1, &ha, func(config) *Pipeline {
		churn := overBudget("zz_churn", m.spec, 0)
		return applyHistory(t, h, []step{{add: churn}, {remove: churn.Name}})
	})
}

// TestMatrix is the configuration matrix: two lineages of five states, which
// between them run every state at workers {1, 8} and under kernel
// {selected, generic}. Every configuration
// must rank every query at k = 1, 10, n and 0 like the reference — the same
// names in the same order, scores within 1e-12, since a dot of unit rows
// and a cosine with its norms recomputed round differently in the last
// bits — and bit for bit like the anchor, searcher and pipeline alike, with
// the scan's exits covering every table and none cut from a full ranking.
// Every pipeline answers alike through Search, SearchContext, SearchBatch
// and a second pass.
func TestMatrix(t *testing.T) {
	spec, l0, queries := matrixLake()
	if n := len(embed.ColumnTokens(&l0.Get("zz_over_budget").Columns[0])); n <= embed.TokenBudget {
		t.Fatalf("the over-budget table holds %d tokens, within the budget", n)
	}
	rng := rand.New(rand.NewSource(matrixSeed))
	m := &matrix{spec: spec, l0: l0, queries: queries, steps: drawHistory(rng, spec, l0), tail: 40}
	l1 := l0.Clone()
	for _, s := range m.steps {
		if s.add != nil {
			l1.MustAdd(s.add)
		} else if err := l1.Remove(s.remove); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range []*lake.Lake{l0, l1} {
		rank := reference(l.Tables())
		for _, q := range queries {
			m.refs[i] = append(m.refs[i], rank(q))
		}
		tables, shuffled := l.Tables(), lake.New(l.Name)
		rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
		for _, tb := range tables {
			shuffled.MustAdd(tb)
		}
		c := config{fmt.Sprintf("anchor%d", i), 1, false}
		m.anchors[i] = ask(New(shuffled, WithWorkers(1)), queries)
		t.Run(c.String(), func(t *testing.T) { m.check(t, c, m.anchors[i], m.refs[i], nil) })
	}
	for L := range 2 {
		m.lineage(t, L)
	}
	if m.coded == 0 || m.column == 0 || m.cut == 0 {
		t.Errorf("the scan's code bound cut %d tables on its row side and %d on its column side, its float64 bound %d: the matrix exercises not all three",
			m.coded, m.column, m.cut)
	}
}
