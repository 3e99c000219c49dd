package search

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/match"
	"dust/internal/table"
	"dust/internal/vector"
)

// dirtyLakeSpec draws a lake with the defects a real one has: nulls,
// empties, mixed types, unicode, FK columns.
func dirtyLakeSpec(tables int) datagen.LakeSpec {
	return datagen.LakeSpec{
		Name: "scan-test", Seed: 16, Tables: tables, Rows: 12, FKFraction: 0.3,
		Dirty: datagen.DirtySpec{MixedTypes: 0.05, Unicode: 0.05, Null: 0.05, Empty: 0.1},
	}
}

// dirtyLake is the block tests' searcher and queries: 600 generated tables
// plus the shapes the generator cannot draw — a table with no columns, one
// whose every column encodes to the zero vector, and byte-identical copies
// of ten tables under other names, so that equal scores meet the name
// tie-break. Every third query is one of the copied tables itself, and the
// last is the all-blank table, which ties every candidate at 0.
func dirtyLake(t testing.TB, enc embed.StarmieEncoder) (*Starmie, []*table.Table) {
	t.Helper()
	spec := dirtyLakeSpec(600)
	l := spec.Generate()
	l.MustAdd(table.New("zz_nocols"))
	blank := table.New("zz_blank", "", "")
	for i := 0; i < 4; i++ {
		blank.MustAppendRow(table.Null, table.Null)
	}
	l.MustAdd(blank)
	var queries []*table.Table
	for i := 0; i < 10; i++ {
		src := l.Tables()[20+37*i]
		l.MustAdd(src.Clone(fmt.Sprintf("aa_copy_%02d", i)))
		if i%3 == 0 {
			queries = append(queries, spec.Query(5+31*i), spec.Query(600+i), src.Clone("query"))
		}
	}
	return NewStarmieWithEncoder(l, enc), append(queries, blank.Clone("query"))
}

// bareEncoder is the Starmie encoder without the base model's shared
// component and instance noise, so a column with no tokens encodes to the
// zero vector instead of the common direction.
func bareEncoder() embed.StarmieEncoder {
	return embed.StarmieEncoder{
		Model:         embed.NewRoBERTa(embed.WithAnisotropy(0), embed.WithNoise(0)),
		ContextWeight: 0.5,
	}
}

func queryCols(s *Starmie, q *table.Table) []vector.Vec {
	return s.EncodeQuery(q)
}

// TestBlocksAreUnitOrZero pins the contract the dot-product cell rests on:
// every stored row, and every query column, is what EncodeTableColumns
// emits — unit length or all-zero.
func TestBlocksAreUnitOrZero(t *testing.T) {
	s, queries := dirtyLake(t, bareEncoder())
	unit, zero := 0, 0
	check := func(v vector.Vec) {
		switch n := vector.Norm(v); {
		case n == 0:
			zero++
		case math.Abs(n-1) < 1e-12:
			unit++
		default:
			t.Fatalf("encoded column has norm %v, want 1 or 0", n)
		}
	}
	for _, e := range s.idx.entries {
		s.blockRows(e.block, check)
	}
	for _, q := range queries {
		for _, v := range queryCols(s, q) {
			check(v)
		}
	}
	if len(s.idx.get("zz_nocols").block) != 0 || zero < 2 || unit < 600 {
		t.Fatalf("lake lacks the shapes under test: %d unit rows, %d zero rows, nocols block of %d",
			unit, zero, len(s.idx.get("zz_nocols").block))
	}
}

// weightsSearcher builds a searcher and an entry that scores, against the
// returned query, exactly the given weight matrix: query column i is the
// basis vector e_i and stored column j carries w[i][j] in coordinate i, so
// each dot is a single exact product. (A stored column is not unit length,
// but against a basis vector the code bound still holds: it is the
// coordinate's code times its scale plus the row's error bound.)
func weightsSearcher(w [][]float64, minSim float64) (*Starmie, *starmiePrepared, *entry) {
	s := emptyStarmie(lake.New("w"), embed.NewStarmie(), options{})
	s.MinSim = minSim
	dim, nc := s.enc.Dim(), len(w[0])
	q := make([]vector.Vec, len(w))
	block := make([]float64, nc*dim)
	for i, row := range w {
		q[i] = make(vector.Vec, dim)
		q[i][i] = 1
		for j, x := range row {
			block[j*dim+i] = x
		}
	}
	code := vector.NewCodeBlock(nc, dim)
	code.Quantize(block, dim)
	return s, &starmiePrepared{panels: vector.NewQueryPanels(q), codes: vector.NewQueryCodes(q)}, &entry{block: block, code: code}
}

// TestScoreExitsAreExact checks the five exits of scan.score against the
// Hungarian total on random weight matrices, ties and empty rows included,
// each walked from the first row and resumed from the first pass's stored
// reach: the score is the reference score bit for bit whichever exit
// produced it; a floor at the score itself never cuts the table (a tie
// must reach the name comparison); and whenever a floor does cut, by
// either side of either bound, the true score is strictly below it.
func TestScoreExitsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var sc scan
	exits := [ScanExits]int{}
	for trial := 0; trial < 3000; trial++ {
		nq, nc := 1+rng.Intn(6), 1+rng.Intn(6)
		levels := 1 + rng.Intn(5)
		w := make([][]float64, nq)
		for i := range w {
			w[i] = make([]float64, nc)
			if rng.Intn(6) == 0 {
				continue
			}
			for j := range w[i] {
				if trial%2 == 0 {
					w[i][j] = float64(rng.Intn(levels+1)) / float64(levels)
				} else {
					w[i][j] = rng.Float64()
				}
			}
		}
		s, q, e := weightsSearcher(w, 0)
		_, total := match.MaxWeight(w)
		want := total / float64(nq)

		sc.scanConf, sc.q, sc.cands = s.scanConf(), q, []entry{*e}
		reach := sc.reach(0)
		if !(reach >= want) {
			t.Fatalf("trial %d: reach %v below the score %v (w=%v)", trial, reach, want, w)
		}
		// With no reach the code walk starts at row 0; with the stored one
		// it resumes after the first panel.
		for _, reach := range []float64{math.Inf(1), storeReach(reach).value()} {
			got, exit := sc.with(s).score(q, e, math.Inf(-1), reach)
			if got != want || exit <= ScanBounded {
				t.Fatalf("trial %d: score %v (exit %d), Hungarian %v (w=%v)", trial, got, exit, want, w)
			}
			exits[exit]++
			if tied, exit := sc.with(s).score(q, e, want, reach); tied != want || exit <= ScanBounded {
				t.Fatalf("trial %d: floor == score cut the table or moved its score: %v exit %d (w=%v)", trial, tied, exit, w)
			}
			for _, floor := range []float64{math.Nextafter(want, 2), want + 0.05, want + 0.3, 1} {
				if _, exit := sc.with(s).score(q, e, floor, reach); exit <= ScanBounded {
					exits[exit]++
				}
			}
			for _, floor := range []float64{math.Nextafter(want, -1), want - 0.05, 0} {
				if _, exit := sc.with(s).score(q, e, floor, reach); exit <= ScanBounded {
					t.Fatalf("trial %d: floor %v cut a table scoring %v (w=%v)", trial, floor, want, w)
				}
			}
		}
	}
	for exit, n := range exits {
		if n == 0 {
			t.Errorf("exit %d never taken", exit)
		}
	}
}

// TestGreedyExitNeedsDistinctMaxima pins the shortcut's condition on the
// textbook counter-example: both rows prefer column 0, their sum 1.6 is no
// matching, and the Hungarian step must settle for 0.8 + 0.7.
func TestGreedyExitNeedsDistinctMaxima(t *testing.T) {
	var sc scan
	hi, mid, lo := 0.9, 0.8, 0.7
	s, q, e := weightsSearcher([][]float64{{hi, mid}, {lo, 0.1}}, 0)
	if got, exit := sc.with(s).score(q, e, math.Inf(-1), math.Inf(1)); got != (mid+lo)/2 || exit != ScanMatched {
		t.Errorf("colliding maxima: score %v exit %d, want 0.75 by matching", got, exit)
	}
	s, q, e = weightsSearcher([][]float64{{hi, 0.1}, {0.2, mid}}, 0)
	if got, exit := sc.with(s).score(q, e, math.Inf(-1), math.Inf(1)); got != (hi+mid)/2 || exit != ScanGreedy {
		t.Errorf("distinct maxima: score %v exit %d, want 0.85 by the shortcut", got, exit)
	}
}

// TestScoreDropsSimAtMinSim keeps the verification threshold strict: a
// similarity equal to MinSim is dropped, the next float above it counts.
func TestScoreDropsSimAtMinSim(t *testing.T) {
	const minSim = 0.3
	above := math.Nextafter(minSim, 1)
	s, q, e := weightsSearcher([][]float64{{minSim, 0.1}, {0.2, above}}, minSim)
	var sc scan
	if got, _ := sc.with(s).score(q, e, math.Inf(-1), math.Inf(1)); got != above/2 {
		t.Errorf("Score = %v, want %v: only the cell above MinSim counts", got, above/2)
	}
}

// bigTable builds a table with a column over the encoder token budget, so
// its Starmie embedding depends on the TF-IDF selection against its own
// columns.
func bigTable(name string, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	t := table.New(name, "Myth", "Definition")
	for i := 0; i < 3*embed.TokenBudget/4; i++ {
		t.MustAppendRow(
			fmt.Sprintf("creature%d%d", seed, rng.Intn(1000)),
			fmt.Sprintf("legend%d whispered%d", rng.Intn(1000), rng.Intn(1000)),
		)
	}
	return t
}

func firstAddr(b []float64) *float64 {
	if len(b) == 0 {
		return nil
	}
	return &b[0]
}

// TestSuccessorSharesBlocks pins copy-on-write at the block level: a
// WithTable successor and its WithoutTable successor leave the parent's
// answers untouched, and every table but the one added, over-budget tables
// among them, still points at the parent's block — a PUT copies and
// re-embeds no lake vectors. A save ->
// load -> save of the last successor is byte-identical, and the loaded
// index answers like it.
func TestSuccessorSharesBlocks(t *testing.T) {
	s, queries := dirtyLake(t, embed.NewStarmie())
	s = withTable(t, s, bigTable("zz_big", 3))
	before := make([][]Scored, len(queries))
	for i, q := range queries {
		before[i] = TopK(s, q, 10)
	}

	extra := bigTable("zz_big_too", 4)
	victim := s.lake.Names()[7]
	c := withoutTable(t, withTable(t, s, extra), victim)
	l2 := c.Lake()

	for i, q := range queries {
		assertSameHits(t, fmt.Sprintf("parent after its successors, query %d", i), TopK(s, q, 10), before[i])
	}
	if s.idx.get(victim) == nil || s.lake.Get(victim) == nil || s.lake.Get(extra.Name) != nil {
		t.Fatalf("the successors' mutations reached the parent")
	}
	shared := 0
	for _, e := range c.idx.entries {
		name, parent := e.t.Name, s.idx.get(e.t.Name)
		switch {
		case name == extra.Name:
		case firstAddr(e.block) != firstAddr(parent.block) || len(e.block) != len(parent.block):
			t.Fatalf("untouched table %q was copied by the successors", name)
		default:
			shared++
		}
	}
	if shared != len(c.idx.entries)-1 {
		t.Fatalf("%d of %d blocks shared", shared, len(c.idx.entries)-1)
	}

	var first, second bytes.Buffer
	if err := c.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStarmie(bytes.NewReader(first.Bytes()), l2)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save -> load -> save changed the file")
	}
	for i, q := range queries {
		assertSameHits(t, fmt.Sprintf("loaded vs successor, query %d", i), TopK(loaded, q, 10), TopK(c, q, 10))
	}
}

// TestIndexFollowsLake runs a seeded mutation history over an index scanned
// by one worker and over one scanned by three — WithTable (over-budget
// tables among them), WithoutTable, successors of QueryWorkers views, and
// Save -> LoadStarmie against a reordered lake — and after every step holds
// the index to its lake: the entries name lake.Names() in order, each block
// is bit-equal to a from-scratch NewStarmie's, and the exact TopK at k = 10
// and k = 0 equals it. While successors are built, a goroutine queries
// their parent, whose answers must not move: under -race this is the check
// that a successor never writes an entry array or a block its parent
// scans.
func TestIndexFollowsLake(t *testing.T) {
	spec := dirtyLakeSpec(40)
	queries := []*table.Table{spec.Query(3), spec.Query(17), bigTable("query", 9)}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(37 + workers)))
			s := NewStarmie(spec.Generate(), WithWorkers(workers))
			added := 0
			add := func(s Searcher) *Starmie {
				t.Helper()
				added++
				tbl := spec.Query(1000 + added).Clone(fmt.Sprintf("zz_add_%03d", added))
				if rng.Intn(3) == 0 {
					tbl = bigTable(fmt.Sprintf("zz_big_%03d", added), int64(added))
				}
				return withTable(t, s, tbl)
			}
			remove := func(s Searcher) *Starmie {
				t.Helper()
				names := s.Lake().Names()
				return withoutTable(t, s, names[rng.Intn(len(names))])
			}
			for step := 0; step < 24; step++ {
				var op string
				switch rng.Intn(6) {
				case 0, 1:
					op = "add"
					s = add(s)
				case 2:
					op = "remove"
					s = remove(s)
				case 3:
					op = "view"
					s = remove(add(s.QueryWorkers(1))).QueryWorkers(workers).(*Starmie)
				case 4:
					op = "concurrent"
					before := make([][]Scored, len(queries))
					for i, q := range queries {
						before[i] = TopK(s, q, 0)
					}
					during := make([][]Scored, len(queries))
					done := make(chan struct{})
					go func() {
						defer close(done)
						for i, q := range queries {
							during[i] = TopK(s, q, 0)
						}
					}()
					c := add(remove(s))
					<-done
					for i, q := range queries {
						assertSameHits(t, fmt.Sprintf("step %d: parent while its successors were built, query %d", step, i), during[i], before[i])
						assertSameHits(t, fmt.Sprintf("step %d: parent after its successors were built, query %d", step, i), TopK(s, q, 0), before[i])
					}
					checkIndex(t, fmt.Sprintf("step %d: parent", step), s, queries)
					s = c
				case 5:
					op = "reload"
					s = reload(t, s, rng, workers)
				}
				checkIndex(t, fmt.Sprintf("step %d (%s)", step, op), s, queries)
			}
		})
	}
}

// reload saves s and loads it back, scanned by workers, against a shuffled
// copy of its lake, as a warm start does.
func reload(t *testing.T, s *Starmie, rng *rand.Rand, workers int) *Starmie {
	t.Helper()
	tables := s.lake.Tables()
	shuffled := lake.New(s.lake.Name)
	for _, i := range rng.Perm(len(tables)) {
		shuffled.MustAdd(tables[i])
	}
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStarmie(&saved, shuffled, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// checkIndex holds s's index to its lake and to a from-scratch index over
// the same lake, and each entry's codes to a fresh quantisation of its
// block.
func checkIndex(t *testing.T, label string, s *Starmie, queries []*table.Table) {
	t.Helper()
	names := s.lake.Names()
	if len(s.idx.entries) != len(names) || len(s.idx.pos) != len(names) {
		t.Fatalf("%s: %d entries, %d positions, lake holds %d tables", label, len(s.idx.entries), len(s.idx.pos), len(names))
	}
	ref := NewStarmie(s.lake, WithWorkers(1))
	for i, e := range s.idx.entries {
		if e.t != s.lake.Get(names[i]) || s.idx.pos[names[i]] != i {
			t.Fatalf("%s: entry %d is %q (position %d), lake has %q there", label, i, e.t.Name, s.idx.pos[e.t.Name], names[i])
		}
		if !sameBits(e.block, ref.idx.entries[i].block) {
			t.Fatalf("%s: table %q's block differs from a fresh index's", label, e.t.Name)
		}
		fresh := vector.NewCodeBlock(len(e.block)/s.enc.Dim(), s.enc.Dim())
		fresh.Quantize(e.block, s.enc.Dim())
		if len(e.code.K) != len(e.block) || !slices.Equal(e.code.K, fresh.K) || !sameScale(e.code.S, fresh.S) {
			t.Fatalf("%s: table %q's codes differ from a fresh quantisation of its block", label, e.t.Name)
		}
	}
	for i, q := range queries {
		for _, k := range []int{10, 0} {
			assertSameHits(t, fmt.Sprintf("%s: query %d, k=%d", label, i, k), TopK(s, q, k), TopK(ref, q, k))
		}
	}
}

// sameScale reports whether two scales are bit-identical.
func sameScale(x, y vector.CodeScale) bool {
	return math.Float64bits(x.Scale) == math.Float64bits(y.Scale) && math.Float64bits(x.Err) == math.Float64bits(y.Err)
}

// TestCodeCutIsBoundedCut holds the code pre-pass's row side to what makes
// it exact: over the dirty lake's every table and query, at floors across
// the range scores take, whenever score leaves by the coded exit — walking
// the code bounds from the first row, or resuming from the first pass's
// stored reach — the float64 walk alone (the cells' dots, clamped, summed
// in row order with its reach cut) cuts the table too, so the ranking and
// the other exits' counts are those of a scan without the pre-pass. It also
// pins that the pre-pass cuts most of what the float64 row walk cuts, which
// is what it is for.
func TestCodeCutIsBoundedCut(t *testing.T) {
	s, queries := dirtyLake(t, embed.NewStarmie())
	var sc scan
	var coded, bounded int
	for qi, query := range queries {
		q := s.Prepare(query).(*starmiePrepared)
		nq := q.panels.Len()
		for _, e := range s.idx.entries {
			nc := len(e.block) / s.enc.Dim()
			if nq == 0 || nc == 0 {
				continue
			}
			w := cells(q, &e, nc)
			sc.scanConf, sc.q, sc.cands = s.scanConf(), q, []entry{e}
			resumed := storeReach(sc.reach(0)).value()
			for _, floor := range []float64{0.05, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95} {
				floatCut, ub := false, 0.0
				for i := 0; i < nq && !floatCut; i++ {
					best, _ := clampRow(slices.Clone(w[i*nc:(i+1)*nc]), max(s.MinSim, 0))
					ub += best
					floatCut = cannotReach(ub, i, nq, floor)
				}
				switch _, exit := sc.with(s).score(q, &e, floor, math.Inf(1)); {
				case exit == ScanCoded && !floatCut:
					t.Fatalf("query %d, table %q, floor %v: the code bound cut a table the float64 bound keeps", qi, e.t.Name, floor)
				case exit == ScanCoded:
					coded++
				case floatCut:
					bounded++
				}
				if _, exit := sc.with(s).score(q, &e, floor, resumed); exit == ScanCoded && !floatCut {
					t.Fatalf("query %d, table %q, floor %v: the code bound, resumed from the stored reach %v, cut a table the float64 bound keeps", qi, e.t.Name, floor, resumed)
				}
			}
		}
	}
	runtime.KeepAlive(s) // the loop read s's blocks by hand: its region stays mapped until here
	t.Logf("cut by the code bound %d, by the float64 bound after it %d", coded, bounded)
	if coded < 4*bounded {
		t.Errorf("the code bound cut %d tables and left %d for the float64 bound: want at least four in five", coded, bounded)
	}
}

// TestColumnCutIsCertified holds the column side of the bound to what makes
// it exact: over the dirty lake's every table and query, at floors from
// 0.05 to 0.95, walking from the first row or resuming from the stored
// reach, whenever score leaves by the column exit, the column side over the
// float64 cells (columnBound over the clamped cells' column maxima)
// cuts the table too, and the full Hungarian score is strictly below the
// floor; so is it whenever any other exit cuts. Some column cuts must
// happen, so that the check is not vacuous.
func TestColumnCutIsCertified(t *testing.T) {
	s, queries := dirtyLake(t, embed.NewStarmie())
	minSim := max(s.MinSim, 0)
	var sc scan
	columns := 0
	for qi, query := range queries {
		q := s.Prepare(query).(*starmiePrepared)
		nq := q.panels.Len()
		for _, e := range s.idx.entries {
			nc := len(e.block) / s.enc.Dim()
			if nq == 0 || nc == 0 {
				continue
			}
			w := cells(q, &e, nc)
			col := make([]float64, nc)
			for i, x := range w {
				col[i%nc] = max(col[i%nc], clamp(x, minSim))
			}
			full, _ := sc.with(s).score(q, &e, math.Inf(-1), math.Inf(1))
			sc.scanConf, sc.q, sc.cands = s.scanConf(), q, []entry{e}
			resumed := storeReach(sc.reach(0)).value()
			for f := 0; f < 10; f++ {
				floor := 0.05 + 0.1*float64(f)
				for _, reach := range []float64{math.Inf(1), resumed} {
					_, exit := sc.with(s).score(q, &e, floor, reach)
					if exit == ScanColumn {
						columns++
						if !(columnBound(col, nq)/float64(nq) < floor) {
							t.Fatalf("query %d, table %q, floor %v: the code bound's column side cut a table the float64 one keeps", qi, e.t.Name, floor)
						}
					}
					if exit <= ScanBounded && !(full < floor) {
						t.Fatalf("query %d, table %q, floor %v: exit %d cut a table scoring %v", qi, e.t.Name, floor, exit, full)
					}
				}
			}
		}
	}
	runtime.KeepAlive(s) // the loop read s's blocks by hand: its region stays mapped until here
	t.Logf("cut by the column side of the code bound: %d", columns)
	if columns == 0 {
		t.Error("the column side of the code bound cut no table")
	}
}

// cells is the float64 dots of q's rows with e's nc stored rows, row-major,
// as the scan's float walk computes them before clamping.
func cells(q *starmiePrepared, e *entry, nc int) []float64 {
	w := make([]float64, q.panels.Len()*nc)
	for p := 0; p*vector.PanelRows < q.panels.Len(); p++ {
		q.panels.DotBlock(p, e.block, w)
	}
	return w
}

// seededLake is a searcher over n tables of the `wide` shape at seed, then
// copies byte-identical to one of them under names in descending order, so
// that the lake order of the tied copies runs against their name order,
// and its queries: that table itself and two of the spec's.
func seededLake(t *testing.T, seed int64, n, copies int) (*Starmie, []*table.Table) {
	t.Helper()
	spec, err := datagen.ParseLakeSpec(fmt.Sprintf("tables=%d,rows=12,seed=%d,zipf=1.5,parents=11,fk=0.3,null=0.01", n, seed))
	if err != nil {
		t.Fatal(err)
	}
	l := spec.Generate()
	src := l.Tables()[n/3]
	for i := copies - 1; i >= 0; i-- {
		l.MustAdd(src.Clone(fmt.Sprintf("copy_%02d", i)))
	}
	return NewStarmie(l), []*table.Table{src.Clone("query"), spec.Query(3), spec.Query(11)}
}

// referenceRanking scores every indexed table with no floor and sorts them
// by HitOrder: the ranking the two-pass scan must return.
func referenceRanking(s *Starmie, q *table.Table, k int) []Scored {
	p := s.Prepare(q).(*starmiePrepared)
	var sc scan
	var all []Scored
	for i := range s.idx.entries {
		score, _ := sc.with(s).score(p, &s.idx.entries[i], math.Inf(-1), math.Inf(1))
		all = append(all, Scored{Table: s.idx.entries[i].t, Score: score})
	}
	slices.SortFunc(all, HitOrder)
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

// TestSeedsAreMarked holds the two-pass ranking to the reference over two
// searchers with equal candidate counts, queried alternately at one worker
// and three, so that pooled scratch one query leaves behind meets the
// other's candidates. k runs over 1, 10, 2·10+1, every table, a k whose
// double overflows, and the full ranking: at k = n every table is a seed,
// and in a chunk of fewer than k tables the floor stays -Inf, so a seed
// kept out of the second pass by its reach instead of the seed list would
// come back as a duplicate hit. Twenty-five tied copies of the first
// query's table put equal scores on both sides of the seed boundary, and
// their lake order runs against their name order.
func TestSeedsAreMarked(t *testing.T) {
	a, qa := seededLake(t, 7, 120, 25)
	b, qb := seededLake(t, 8, 120, 25)
	n := len(a.idx.entries)
	if len(b.idx.entries) != n {
		t.Fatalf("candidate counts %d and %d differ", n, len(b.idx.entries))
	}
	if ref := referenceRanking(a, qa[0], 0); ref[9].Score != ref[10].Score || ref[20].Score != ref[21].Score {
		t.Fatalf("the copies do not tie across k = 10 and 21: %v", ref[:22])
	}
	for _, k := range []int{1, 10, 21, n, math.MaxInt, 0} {
		for _, workers := range []int{1, 3, 1, 3} {
			for _, c := range []struct {
				name string
				s    *Starmie
				qs   []*table.Table
			}{{"a", a, qa}, {"b", b, qb}} {
				for i, q := range c.qs {
					label := fmt.Sprintf("searcher %s, query %d, k=%d, workers %d", c.name, i, k, workers)
					assertSameHits(t, label, TopK(c.s.QueryWorkers(workers), q, k), referenceRanking(c.s, q, k))
				}
			}
		}
	}
}

// TestScoreTablesMatchesRanking holds ScoreTables to the scores TopK ranks
// by, bit for bit, at one worker and three, over a lake with tied copies:
// a table ScoreTables scores outside a ranking compares with the ranking's
// tables exactly. A name the index does not hold is lake.ErrUnknownTable.
func TestScoreTablesMatchesRanking(t *testing.T) {
	s, qs := seededLake(t, 7, 60, 5)
	for _, workers := range []int{1, 3} {
		v := s.QueryWorkers(workers)
		for i, q := range qs {
			pq := v.Prepare(q)
			ranked, err := v.TopKPrepared(context.Background(), pq, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, len(ranked))
			for j, h := range ranked {
				names[len(ranked)-1-j] = h.Table.Name // reversed: order is the caller's
			}
			scored, err := v.ScoreTables(pq, names)
			if err != nil {
				t.Fatal(err)
			}
			slices.Reverse(scored)
			assertSameHits(t, fmt.Sprintf("query %d, workers %d", i, workers), scored, ranked)
		}
	}
	if _, err := s.ScoreTables(s.Prepare(qs[0]), []string{"no_such_table"}); !errors.Is(err, lake.ErrUnknownTable) {
		t.Fatalf("ScoreTables of an unknown name: %v, want lake.ErrUnknownTable", err)
	}
}

// TestVectorsDependOnTableAlone pins that every stored vector, and every
// query vector, is a function of its own table: an over-budget table
// indexed in two different lakes, and added by WithTable to a third, holds
// bit-identical blocks and codes in all three, and an over-budget query
// prepares to the same panels and codes against two different lakes.
func TestVectorsDependOnTableAlone(t *testing.T) {
	big, query := bigTable("zz_big", 2), bigTable("big_query", 1)
	if !overBudget(big) || !overBudget(query) {
		t.Fatal("the tables under test are within the token budget")
	}
	lakeA, lakeB := dirtyLakeSpec(30).Generate(), wideSpec(50).Generate()
	lakeA.MustAdd(big)
	lakeB.MustAdd(bigTable("zz_big_other", 5))
	lakeB.MustAdd(big)
	a, b := NewStarmie(lakeA), NewStarmie(lakeB, WithWorkers(3))
	c := withTable(t, withTable(t, NewStarmie(datagen.LakeSpec{Seed: 3, Tables: 20, Rows: 30}.Generate()), bigTable("zz_big_third", 7)), big)
	want := a.idx.get(big.Name)
	for name, s := range map[string]*Starmie{"another lake": b, "WithTable": c} {
		got := s.idx.get(big.Name)
		if !sameBits(got.block, want.block) || !slices.Equal(got.code.K, want.code.K) || !sameScale(got.code.S, want.code.S) {
			t.Errorf("%s: the over-budget table's block or codes differ from its first lake's", name)
		}
	}
	pa, pb := a.Prepare(query).(*starmiePrepared), b.Prepare(query).(*starmiePrepared)
	if !reflect.DeepEqual(pa.panels, pb.panels) || !reflect.DeepEqual(pa.codes, pb.codes) {
		t.Error("an over-budget query prepares differently against two lakes")
	}
	qa, qb := a.EncodeQuery(query), b.EncodeQuery(query)
	for i := range qa {
		if !sameBits(qa[i], qb[i]) {
			t.Errorf("query column %d encodes differently against two lakes", i)
		}
	}
	runtime.KeepAlive(a.region)
	runtime.KeepAlive(b.region)
}

// wideSpec is the benchmark's `wide` lake shape (bench/workload.go) at a
// chosen table count.
func wideSpec(tables int) datagen.LakeSpec {
	spec, err := datagen.ParseLakeSpec(fmt.Sprintf(
		"tables=%d,rows=12,seed=7,zipf=1.5,parents=11,fk=0.3,null=0.01", tables))
	if err != nil {
		panic(err)
	}
	return spec
}

// wideQueries prepares n of the spec's queries against s.
func wideQueries(s Searcher, spec datagen.LakeSpec, n int) []PreparedQuery {
	pqs := make([]PreparedQuery, n)
	for i := range pqs {
		pqs[i] = s.Prepare(spec.Query(i * 7))
	}
	return pqs
}

var benchHits []Scored

// TestTopKAllocs pins the steady state of the exact scan: a top-10 at one
// worker allocates the result and a few closures, and nothing that grows
// with the lake — no copy of its table list, no per-table weight matrix —
// so the count is the same at 500 and 2000 tables, at most 8 KB a query.
// Under -race the pool drops scans at random and the count does not repeat;
// the byte bound still holds there.
func TestTopKAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{500, 2000} {
		spec := wideSpec(n)
		s := NewStarmie(spec.Generate()).QueryWorkers(1)
		pqs := wideQueries(s, spec, 8)
		ctx := context.Background()
		run := func() {
			for _, pq := range pqs {
				benchHits, _ = s.TopKPrepared(ctx, pq, 10, nil)
			}
		}
		runtime.GC() // no collection left pending to empty the pool mid-measure
		run()        // warm the scan pool
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		allocs := testing.AllocsPerRun(5, run) / float64(len(pqs))
		runtime.ReadMemStats(&m1)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(6*len(pqs)) // AllocsPerRun runs once to warm up
		t.Logf("TopKPrepared over %d tables: %.0f allocs, %.0f B per query", n, allocs, bytes)
		if bytes > 8<<10 {
			t.Errorf("TopKPrepared over %d tables allocates %.0f B per query; want <= 8 KB", n, bytes)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] && !raceEnabled {
		t.Errorf("TopKPrepared allocates %v times per query at 500 and 2000 tables; want the same count", counts)
	}
}

// poolQueries prepares against s the queries the benchmark's pool draws
// from spec (bench/workload.go): the first perClass of each width class,
// 3 to 7 columns with narrower and wider queries counted at the nearest, in
// index order.
func poolQueries(s Searcher, spec datagen.LakeSpec, perClass int) []PreparedQuery {
	const minWidth, maxWidth = 3, 7
	var have [maxWidth - minWidth + 1]int
	var pqs []PreparedQuery
	for i := 0; i < spec.Tables && len(pqs) < len(have)*perClass; i++ {
		q := spec.Query(i)
		if c := min(max(q.NumCols(), minWidth), maxWidth) - minWidth; have[c] < perClass {
			have[c]++
			pqs = append(pqs, s.Prepare(q))
		}
	}
	return pqs
}

// BenchmarkStarmieTopK is the micro view of the traced run's
// search.topk_p50_ms: the exact top-10 of a prepared query over the `wide`
// lake shape, one worker, cycling through the benchmark pool's 80 queries,
// 16 of each width class. It reports the work a query does by scan exit:
// floatwalks/op is the tables whose float64 cells were read (the bounded,
// greedy and matched exits), scored/op those fully scored (greedy and
// matched) and matched/op those the Hungarian step scored.
func BenchmarkStarmieTopK(b *testing.B) {
	for _, n := range []int{500, 8000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			spec := wideSpec(n)
			s := NewStarmie(spec.Generate()).QueryWorkers(1)
			pqs := poolQueries(s, spec, 16)
			tr := &Trace{}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchHits, _ = s.TopKPrepared(ctx, pqs[i%len(pqs)], 10, tr)
			}
			perOp := func(exits ...int) float64 {
				var n int64
				for _, exit := range exits {
					n += tr.Scan[exit].Load()
				}
				return float64(n) / float64(b.N)
			}
			b.ReportMetric(perOp(ScanBounded, ScanGreedy, ScanMatched), "floatwalks/op")
			b.ReportMetric(perOp(ScanGreedy, ScanMatched), "scored/op")
			b.ReportMetric(perOp(ScanMatched), "matched/op")
		})
	}
}

// with points sc at s's configuration, for a test that scores by hand.
func (sc *scan) with(s *Starmie) *scan {
	sc.scanConf = s.scanConf()
	return sc
}
