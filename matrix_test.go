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

// matrixSeed draws the mutation history and every configuration's workers
// and kernel; a configuration's subtest name carries all of it.
const matrixSeed = 29

// annRecallFloor is ANN's recall@10 against the reference over the matrix
// queries, per part count: the lowest measured in any state.
var annRecallFloor = map[int]float64{1: 0.971, 3: 0.980, 8: 0.980}

// reference returns Algorithm 1's SearchTables from scratch over tables: a
// TF-IDF corpus over every column, Starmie's column embeddings of every
// table and of the query against that corpus, a fresh matrix of
// vector.Cosine cells above MinSim (0.3), match.MaxWeight divided by |Q|,
// and a sort by score descending, name ascending. There is no index, block,
// pool, memo or scan.
func reference(tables []*table.Table) func(q *table.Table) []search.Scored {
	enc, corpus := embed.NewStarmie(), &tokenize.Corpus{}
	for _, t := range tables {
		for i := range t.Columns {
			corpus.AddDocument(embed.ColumnTokens(&t.Columns[i]))
		}
	}
	encode := func(t *table.Table) []vector.Vec {
		return enc.EncodeTableColumns(t, func() *tokenize.Corpus { return corpus })
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
// token budget (so the corpus-sensitive refresh runs). The queries are 16
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

// overBudget builds a one-column table over embed.TokenBudget from the
// first rows of 30 spec tables, three times over: its words are the lake's,
// so every mutation moves their document frequencies and with them the
// order of its TF-IDF token selection.
func overBudget(name string, spec datagen.LakeSpec, from int) *table.Table {
	var rows []string
	for i := from; i < from+30; i++ {
		rows = append(rows, strings.Join(spec.Table(i).Row(0), " "))
	}
	t := table.New(name, "words")
	for range 3 {
		for _, row := range rows {
			t.MustAppendRow(row)
		}
	}
	return t
}

// step is one mutation of the history: add a table, or remove one by name.
type step struct {
	add    *table.Table
	remove string
}

// drawHistory removes 360 of l's tables in a seeded order, enough for the
// graphs' tombstones to cross the rebuild threshold, and adds 36 between
// them: 31 fresh spec tables, four it removed earlier, and a second
// over-budget table, which leaves again. The lake's own over-budget table
// stays, so its vectors must follow every step, and the last step adds, so
// only AddTable's own refresh leaves them current.
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

// applyHistory runs steps on p through the pipeline. Halfway it asks for a
// duplicate add and an unknown remove, of the pipeline and of its searcher,
// which must fail with the typed errors and leave the epoch.
func applyHistory(t *testing.T, p *Pipeline, steps []step) {
	t.Helper()
	e0 := p.Epoch()
	for i, s := range steps {
		if i == len(steps)/2 {
			present, e := p.Lake().Tables()[0], p.Epoch()
			for _, c := range []struct{ err, want error }{
				{p.AddTable(present), lake.ErrDuplicateTable},
				{p.searcher.AddTable(present), search.ErrDuplicateTable},
				{p.RemoveTable("zz_absent"), lake.ErrUnknownTable},
				{p.searcher.RemoveTable("zz_absent"), search.ErrUnknownTable},
			} {
				if !errors.Is(c.err, c.want) || p.Epoch() != e {
					t.Fatalf("history step %d: err = %v at epoch %d, want %v at %d", i, c.err, p.Epoch(), c.want, e)
				}
			}
		}
		var err error
		if s.add != nil {
			err = p.AddTable(s.add)
		} else {
			err = p.RemoveTable(s.remove)
		}
		if err != nil {
			t.Fatalf("history step %d: %v", i, err)
		}
	}
	if p.Epoch() != e0+uint64(len(steps)) {
		t.Fatalf("epoch %d after %d mutations from %d", p.Epoch(), len(steps), e0)
	}
}

// config is one point of the matrix.
type config struct {
	mode    search.Mode
	parts   int
	state   string
	workers int
	generic bool
}

func (c config) String() string {
	return fmt.Sprintf("%v/parts=%d/%s/workers=%d/kernel=%s", c.mode, c.parts, c.state, c.workers,
		map[bool]string{false: "selected", true: "generic"}[c.generic])
}

// answers is what one configuration says: every query's ranking at every
// k (query-major) with the scan's exit counts, and in lines the bitwise
// digest of those rankings followed by the pipeline's first-pass answers.
// passes holds the pipeline's answers again, warm, through SearchContext
// under a cancellable context and through SearchBatch; shape is the
// index's footprint and tombstone debt.
type answers struct {
	ks     []int
	hits   [][]search.Scored
	scans  [][4]int64
	lines  []string
	passes [2][]string
	shape  string
}

// ask collects p's answers to queries; the first three also go through the
// whole pipeline at k = 10.
func ask(p *Pipeline, queries []*table.Table) answers {
	a := answers{ks: []int{1, 10, p.Lake().Len(), 0}, shape: fmt.Sprint(p.IndexBytes(), p.MaintenanceStats())}
	if p.searcher.RetrievalMode() == search.ANN {
		a.ks = []int{1, 10, 0}
	}
	for qi, q := range queries {
		pq := p.searcher.Prepare(q)
		for _, k := range a.ks {
			var tr search.Trace
			hits, err := p.searcher.TopKPrepared(search.WithTrace(context.Background(), &tr), pq, k)
			if err != nil {
				panic(err) // an uncancelled query cannot fail
			}
			line := fmt.Sprintf("query %d k=%d:", qi, k)
			for _, h := range hits {
				line += fmt.Sprintf(" %s=%x", h.Table.Name, h.Score)
			}
			a.hits, a.lines = append(a.hits, hits), append(a.lines, line)
			a.scans = append(a.scans, [4]int64{tr.ScanCoded.Load(), tr.ScanBounded.Load(), tr.ScanGreedy.Load(), tr.ScanMatched.Load()})
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
// of the anchor, a fresh one-part, one-worker exact pipeline over the set
// in shuffled order. The history's last tail steps run twice, on a clone
// and after a save and load. coded, cut and pruned count the tables the
// scan's code bound and float64 bound cut and the ANN candidate stage left
// unscanned.
type matrix struct {
	spec               datagen.LakeSpec
	l0                 *lake.Lake
	queries            []*table.Table
	steps              []step
	tail               int
	refs               [2][][]search.Scored
	anchors            [2]answers
	coded, cut, pruned int64
}

// check holds one configuration's answers to the reference's rankings of
// its table set, to its pipeline's other passes, and bitwise to want, the
// answers of a configuration that must agree with it (nil for none).
func (m *matrix) check(t *testing.T, c config, a answers, ref [][]search.Scored, want *answers) {
	t.Helper()
	n, recall := len(ref[0]), 0.0
	for i, hits := range a.hits {
		k, full := a.ks[i%len(a.ks)], ref[i/len(a.ks)]
		label := fmt.Sprintf("%s: query %d k=%d", c, i/len(a.ks), k)
		exact, sc := c.mode == search.Exact || k <= 0, a.scans[i]
		if total := sc[0] + sc[1] + sc[2] + sc[3]; total == 0 || total > int64(n) || exact && total != int64(n) || k <= 0 && sc[0]+sc[1] != 0 {
			t.Fatalf("%s: the scan's exits %v cover %d of %d tables", label, sc, total, n)
		} else {
			m.coded, m.cut, m.pruned = m.coded+sc[0], m.cut+sc[1], m.pruned+int64(n)-total
		}
		if k > 0 && exact {
			full = full[:min(k, n)]
		}
		if exact && len(hits) != len(full) {
			t.Fatalf("%s: %d hits, reference %d", label, len(hits), len(full))
		}
		pos := make(map[*table.Table]int, n)
		for j, h := range full {
			pos[h.Table] = j
		}
		at := -1
		for j, h := range hits {
			r, ok := pos[h.Table]
			if !ok || r <= at || exact && r != j || math.Abs(h.Score-full[r].Score) > 1e-12 {
				t.Fatalf("%s: hit %d = (%s, %v) out of reference order or score", label, j, h.Table.Name, h.Score)
			}
			if at = r; k == 10 && r < 10 {
				recall++
			}
		}
	}
	if r := recall / float64(10*len(m.queries)); c.mode == search.ANN && r < annRecallFloor[c.parts] {
		t.Errorf("%s: recall@10 %.4f under the floor %.3f", c, r, annRecallFloor[c.parts])
	}
	for i, pass := range a.passes {
		for j, got := range pass {
			if first := a.lines[len(a.lines)-len(pass)+j]; got != first {
				t.Fatalf("%s: pipeline query %d through %s:\n%s\nfirst pass:\n%s", c, j, []string{"SearchContext", "SearchBatch"}[i], got, first)
			}
		}
	}
	if want != nil && want.shape != "" && a.shape != want.shape {
		t.Fatalf("%s: index shape %s, want %s", c, a.shape, want.shape)
	}
	for i := 0; want != nil && i < len(want.lines); i++ {
		if a.lines[i] != want.lines[i] {
			t.Fatalf("%s: answer %d differs bitwise:\n%s\nwant\n%s", c, i, a.lines[i], want.lines[i])
		}
	}
}

// lineage takes one mode and part count through five states, each under
// its own drawn workers and kernel. fresh is built over the lake. history
// runs the history on a clone of it, compacted where the tail begins (past
// the rebuild threshold) and cloned again for the tail. original is fresh
// after its clone's history, which must answer as before. loaded saves the
// compacted clone, loads it and runs the tail, which must leave it
// answering like history, down to the graphs' shape. compacted puts a clone
// of history through one more add and remove, so that its last mutation is
// a removal, and compacts it; it must answer like history. Exact states
// answer like the anchors.
func (m *matrix) lineage(t *testing.T, rng *rand.Rand, mode search.Mode, parts int) {
	var anchor [2]*answers
	if mode == search.Exact {
		anchor = [2]*answers{&m.anchors[0], &m.anchors[1]}
	}
	state := func(name string, ref int, want *answers, build func(c config) *Pipeline) (*Pipeline, answers) {
		c := config{mode, parts, name, []int{1, 8}[rng.Intn(2)], rng.Intn(2) == 0}
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
		p := New(m.l0.Clone(), WithShards(parts), WithRetriever(mode), WithWorkers(c.workers))
		if p.Shards() != parts {
			t.Fatalf("WithShards(%d) built %d parts", parts, p.Shards())
		}
		return p
	})
	var mid *Pipeline
	h, ha := state("history", 1, anchor[1], func(config) *Pipeline {
		if mid = f.Clone(); mid.Epoch() != f.Epoch() {
			t.Fatalf("clone at epoch %d of an original at %d", mid.Epoch(), f.Epoch())
		}
		applyHistory(t, mid, m.steps[:len(m.steps)-m.tail])
		if mode == search.ANN && mid.MaintenanceStats().GraphNodes >= f.MaintenanceStats().GraphNodes {
			t.Fatalf("%v/parts=%d: the history never crossed the graphs' rebuild threshold", mode, parts)
		}
		mid.Compact()
		h := mid.Clone()
		applyHistory(t, h, tail)
		return h
	})
	state("original", 0, &fa, func(config) *Pipeline {
		if f.Epoch() != 0 || f.Lake().Len() != m.l0.Len() {
			t.Fatalf("original at epoch %d over %d tables after its clone's history", f.Epoch(), f.Lake().Len())
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
		if p.ConfigTag() != mid.ConfigTag() || p.Shards() != parts || p.Epoch() != mid.Epoch() {
			t.Fatalf("loaded %q over %d parts at epoch %d, saved %q over %d at %d",
				p.ConfigTag(), p.Shards(), p.Epoch(), mid.ConfigTag(), parts, mid.Epoch())
		}
		applyHistory(t, p, tail)
		return p
	})
	compacted := ha
	compacted.shape = "" // compaction pays the history's tombstones
	state("compacted", 1, &compacted, func(config) *Pipeline {
		p, churn := h.Clone(), overBudget("zz_churn", m.spec, 0)
		applyHistory(t, p, []step{{add: churn}, {remove: churn.Name}})
		if p.Compact() != (mode == search.ANN) {
			t.Fatalf("%v/parts=%d: Compact found no tombstones to pay, or found some without a graph", mode, parts)
		}
		if st := p.MaintenanceStats(); st.GraphNodes != st.GraphLive {
			t.Fatalf("compacted graphs hold %d nodes, %d live", st.GraphNodes, st.GraphLive)
		}
		return p
	})
}

// TestMatrix is the configuration matrix: {Exact, ANN} × parts {1, 3, 8} ×
// workers {1, 8} × kernel {selected, generic} × the lineage's states. An
// exact configuration must rank every query at k = 1, 10, n and 0 like the
// reference — the same names in the same order, scores within 1e-12, since
// a dot of unit rows and a cosine with its norms recomputed round
// differently in the last bits — and bit for bit like the anchor, searcher
// and pipeline alike, with the scan's exits covering every table and none
// cut from a full ranking. An ANN configuration must rank its nominees in
// reference order with reference scores, at or above the recall floor, bit
// for bit like the states its lineage ties it to. Every pipeline answers
// alike through Search, SearchContext, SearchBatch and a second pass.
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
		c := config{search.Exact, 1, fmt.Sprintf("anchor%d", i), 1, false}
		m.anchors[i] = ask(New(shuffled, WithWorkers(1)), queries)
		t.Run(c.String(), func(t *testing.T) { m.check(t, c, m.anchors[i], m.refs[i], nil) })
	}
	for _, mode := range []search.Mode{search.Exact, search.ANN} {
		for _, parts := range []int{1, 3, 8} {
			m.lineage(t, rng, mode, parts)
		}
	}
	if m.coded == 0 || m.cut == 0 || m.pruned == 0 {
		t.Errorf("the scan's code bound cut %d tables, its float64 bound %d, and ANN left %d unscanned: the matrix exercises not all three",
			m.coded, m.cut, m.pruned)
	}
}
