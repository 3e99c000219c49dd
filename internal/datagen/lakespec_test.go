package datagen

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"dust/internal/lake"
	"dust/internal/table"
)

// lakeFingerprint serializes everything a LakeSpec derives — table names,
// clean CSV bytes, dirty CSV bytes, and a few query tables — into one
// byte string, so determinism tests can compare whole lakes at once.
func lakeFingerprint(t *testing.T, spec LakeSpec) []byte {
	t.Helper()
	l := spec.Generate()
	var buf bytes.Buffer
	for _, tb := range l.Tables() {
		buf.WriteString(tb.Name)
		buf.WriteByte('\n')
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	n := spec.Normalized().Tables
	for i := 0; i < n; i++ {
		buf.Write(spec.CSV(i))
	}
	for i := 0; i < 4; i++ {
		if err := spec.Query(i).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestLakeSpecSeedDeterminism(t *testing.T) {
	spec := LakeSpec{
		Seed: 42, Tables: 30, Rows: 20, ZipfS: 1.4, FKFraction: 0.5, Parents: 3,
		Dirty: DirtySpec{Ragged: 0.1, MixedTypes: 0.1, Unicode: 0.1, Null: 0.05, Empty: 0.05},
	}
	var want []byte
	for _, workers := range []int{1, 8} {
		s := spec
		s.Workers = workers
		got := lakeFingerprint(t, s)
		if want == nil {
			want = got
			// Same spec, same worker count, fresh run: must also match.
			if again := lakeFingerprint(t, s); !bytes.Equal(want, again) {
				t.Fatal("two runs of the same spec differ")
			}
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d lake differs from workers=1 lake", workers)
		}
	}

	other := spec
	other.Seed = 43
	if bytes.Equal(want, lakeFingerprint(t, other)) {
		t.Fatal("different seeds produced identical lakes")
	}
}

// TestLakeSpecGenerateMatchesTable: Generate reads each parent's row count
// once for the whole lake and re-seeds one source per worker, Table(i) draws
// the row count again from a fresh source; both give table i the same name
// and bytes, FK tables included.
func TestLakeSpecGenerateMatchesTable(t *testing.T) {
	spec := LakeSpec{Seed: 5, Tables: 60, Rows: 15, Parents: 4, FKFraction: 0.6,
		Dirty: DirtySpec{MixedTypes: 0.1, Null: 0.05, Empty: 0.05}}
	norm := spec.Normalized()
	fk := 0
	for i, got := range spec.Generate().Tables() {
		want := spec.Table(i)
		var a, b bytes.Buffer
		if err := got.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("table %d: Generate gives %q, Table gives %q, or their bytes differ", i, got.Name, want.Name)
		}
		if norm.buildSpec(i, norm.rngFor(i, saltContent), nil).parent >= 0 {
			fk++
		}
	}
	if fk == 0 {
		t.Fatal("the lake has no FK table; the test proves nothing")
	}
}

func TestLakeSpecShape(t *testing.T) {
	spec := LakeSpec{Seed: 7, Tables: 25, Rows: 16, Parents: 2}
	l := spec.Generate()
	if l.Len() != 25 {
		t.Fatalf("lake has %d tables, want 25", l.Len())
	}
	norm := spec.Normalized()
	for i, tb := range l.Tables() {
		if tb.Name != spec.TableName(i) {
			t.Fatalf("table %d named %q, want %q", i, tb.Name, spec.TableName(i))
		}
		if tb.NumRows() < 1 {
			t.Fatalf("table %q has no rows", tb.Name)
		}
		lo, hi := norm.Rows/2, 3*norm.Rows/2
		if tb.NumRows() < lo || tb.NumRows() > hi {
			t.Fatalf("table %q has %d rows, want in [%d,%d]", tb.Name, tb.NumRows(), lo, hi)
		}
	}
	// Parent tables carry unique primary keys.
	for p := 0; p < norm.Parents; p++ {
		tb := l.Get(spec.TableName(p))
		seen := map[string]bool{}
		for r := 0; r < tb.NumRows(); r++ {
			k := tb.Cell(r, 0)
			if seen[k] {
				t.Fatalf("parent %q repeats key %q", tb.Name, k)
			}
			seen[k] = true
		}
	}
	q := spec.Query(3)
	if q.NumRows() < 1 || q.NumCols() < 2 {
		t.Fatalf("query shape (%d,%d) too small", q.NumRows(), q.NumCols())
	}
}

// categoryRanks collects the zipf ranks drawn by every category column
// of every table in the spec's lake.
func categoryRanks(t *testing.T, spec LakeSpec) []int {
	t.Helper()
	spec = spec.Normalized()
	var ranks []int
	for i := 0; i < spec.Tables; i++ {
		rng := spec.rngFor(i, saltContent)
		ts := spec.buildSpec(i, rng, nil)
		tb := spec.genTable(i, spec.rngFor(i, saltContent), nil)
		for j, k := range ts.kinds {
			if k != colCategory {
				continue
			}
			for r := 0; r < tb.NumRows(); r++ {
				v := tb.Cell(r, j)
				rank, err := strconv.Atoi(strings.TrimPrefix(v, "cat_"))
				if err != nil {
					t.Fatalf("category cell %q is not cat_<rank>", v)
				}
				ranks = append(ranks, rank)
			}
		}
	}
	return ranks
}

// topShare is the fraction of draws landing on ranks < k.
func topShare(ranks []int, k int) float64 {
	hits := 0
	for _, r := range ranks {
		if r < k {
			hits++
		}
	}
	return float64(hits) / float64(len(ranks))
}

func TestLakeSpecZipfSkew(t *testing.T) {
	base := LakeSpec{Seed: 11, Tables: 12, Rows: 1500, ZipfDomain: 50}

	mild := base
	mild.ZipfS = 1.3
	steep := base
	steep.ZipfS = 2.5

	mildRanks := categoryRanks(t, mild)
	steepRanks := categoryRanks(t, steep)
	if len(mildRanks) < 5000 || len(steepRanks) < 5000 {
		t.Fatalf("too few category draws: %d / %d", len(mildRanks), len(steepRanks))
	}

	// Frequency must decrease with rank: the top 5 ranks together beat the
	// next 5, which beat ranks 10-19.
	for _, ranks := range [][]int{mildRanks, steepRanks} {
		counts := make([]int, 50)
		for _, r := range ranks {
			counts[r]++
		}
		bin := func(lo, hi int) int {
			sum := 0
			for i := lo; i < hi; i++ {
				sum += counts[i]
			}
			return sum
		}
		if !(bin(0, 5) > bin(5, 10) && bin(5, 10) > bin(10, 20)) {
			t.Fatalf("zipf frequency not rank-ordered: %d, %d, %d",
				bin(0, 5), bin(5, 10), bin(10, 20))
		}
	}

	// A steeper exponent concentrates more mass on the head.
	mildTop, steepTop := topShare(mildRanks, 3), topShare(steepRanks, 3)
	if steepTop <= mildTop {
		t.Fatalf("s=2.5 head share %.3f not above s=1.3 head share %.3f", steepTop, mildTop)
	}

	// ZipfS <= 1 disables skew: head share near uniform 3/50.
	flat := base
	flat.ZipfS = 0.5
	flatTop := topShare(categoryRanks(t, flat), 3)
	if flatTop > 0.12 {
		t.Fatalf("uniform fallback head share %.3f, want near 0.06", flatTop)
	}
}

func TestLakeSpecFKIntegrity(t *testing.T) {
	spec := LakeSpec{Seed: 23, Tables: 40, Rows: 18, Parents: 3, FKFraction: 1, ZipfS: 1.6,
		Dirty: DirtySpec{MixedTypes: 0.2, Unicode: 0.2, Null: 0.1, Empty: 0.1}}
	norm := spec.Normalized()
	l := spec.Generate()

	parentKeys := make([]map[string]bool, norm.Parents)
	for p := 0; p < norm.Parents; p++ {
		tb := l.Get(spec.TableName(p))
		parentKeys[p] = make(map[string]bool, tb.NumRows())
		for r := 0; r < tb.NumRows(); r++ {
			parentKeys[p][tb.Cell(r, 0)] = true
		}
	}

	children := 0
	for i := norm.Parents; i < norm.Tables; i++ {
		rng := norm.rngFor(i, saltContent)
		ts := norm.buildSpec(i, rng, nil)
		if ts.parent < 0 {
			t.Fatalf("FKFraction=1 but table %d has no FK", i)
		}
		children++
		tb := l.Get(spec.TableName(i))
		fkCol := -1
		for j, k := range ts.kinds {
			if k == colFK {
				fkCol = j
			}
		}
		for r := 0; r < tb.NumRows(); r++ {
			v := tb.Cell(r, fkCol)
			if !parentKeys[ts.parent][v] {
				t.Fatalf("table %s row %d: FK %q not a key of parent p%04d (dirty modes must not touch FKs)",
					tb.Name, r, v, ts.parent)
			}
		}
	}
	if children == 0 {
		t.Fatal("no child tables generated")
	}
}

// inSet reports membership of v in pool.
func inSet(pool []string, v string) bool {
	for _, p := range pool {
		if p == v {
			return true
		}
	}
	return false
}

func TestLakeSpecDirtyRates(t *testing.T) {
	spec := LakeSpec{Seed: 31, Tables: 25, Rows: 120, ZipfS: 1.5,
		Dirty: DirtySpec{Ragged: 0.15, MixedTypes: 0.1, Unicode: 0.1, Null: 0.05, Empty: 0.05}}
	norm := spec.Normalized()

	var eligible, numericEligible, textualEligible int // non-key cells, per mode
	var empties, nulls, mixed, unicodeCells int
	var rows, raggedRows int

	for i := 0; i < norm.Tables; i++ {
		rng := norm.rngFor(i, saltContent)
		ts := norm.buildSpec(i, rng, nil)
		tb := norm.genTable(i, norm.rngFor(i, saltContent), nil)
		for j, k := range ts.kinds {
			if k.keylike() {
				continue
			}
			eligible += tb.NumRows()
			if k.numeric() {
				numericEligible += tb.NumRows()
			}
			if k.textual() {
				textualEligible += tb.NumRows()
			}
			for r := 0; r < tb.NumRows(); r++ {
				v := tb.Cell(r, j)
				switch {
				case v == table.Null:
					empties++
				case inSet(nullTokens, v):
					nulls++
				case inSet(mixedTokens, v):
					mixed++
				case !isASCII(v):
					unicodeCells++
				}
			}
		}
		// Ragged rows exist only in the CSV rendering.
		recs := strings.Split(strings.TrimRight(string(spec.CSV(i)), "\n"), "\n")
		header := recs[0]
		arity := strings.Count(header, ",") + 1
		for _, rec := range recs[1:] {
			rows++
			if strings.Count(rec, ",")+1 != arity && !strings.Contains(rec, `"`) {
				raggedRows++
			}
		}
	}

	// Each defect count should be near rate * eligible population. The
	// non-first modes see a population thinned by the earlier draws; a
	// ±40% window over the unthinned expectation absorbs that and the
	// sampling noise while still catching off-by-10x rate bugs.
	check := func(name string, got int, rate float64, population int) {
		t.Helper()
		want := rate * float64(population)
		if want < 50 {
			t.Fatalf("%s: expectation %.0f too small for a meaningful test", name, want)
		}
		if float64(got) < 0.6*want || float64(got) > 1.4*want {
			t.Fatalf("%s: %d defects, want within 40%% of %.0f", name, got, want)
		}
	}
	check("empty", empties, spec.Dirty.Empty, eligible)
	check("null", nulls, spec.Dirty.Null, eligible)
	check("mixed-types", mixed, spec.Dirty.MixedTypes, numericEligible)
	check("unicode", unicodeCells, spec.Dirty.Unicode, textualEligible)
	check("ragged", raggedRows, spec.Dirty.Ragged, rows)

	// Clean spec emits zero defects.
	clean := spec
	clean.Dirty = DirtySpec{}
	for i := 0; i < 5; i++ {
		tb := clean.Table(i)
		for j := 0; j < tb.NumCols(); j++ {
			for r := 0; r < tb.NumRows(); r++ {
				v := tb.Cell(r, j)
				if v == table.Null || inSet(nullTokens, v) || inSet(mixedTokens, v) || !isASCII(v) {
					t.Fatalf("clean table %q has defect cell %q", tb.Name, v)
				}
			}
		}
	}
}

// isASCII reports whether s contains only ASCII bytes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func TestParseLakeSpec(t *testing.T) {
	s, err := ParseLakeSpec("tables=500, rows=32,seed=9,zipf=1.7,fk=0.3,ragged=0.05,name=big")
	if err != nil {
		t.Fatal(err)
	}
	if s.Tables != 500 || s.Rows != 32 || s.Seed != 9 || s.ZipfS != 1.7 ||
		s.FKFraction != 0.3 || s.Dirty.Ragged != 0.05 || s.Name != "big" {
		t.Fatalf("parsed spec wrong: %+v", s)
	}
	if _, err := ParseLakeSpec("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseLakeSpec("tables=abc"); err == nil {
		t.Fatal("bad int accepted")
	}
	if _, err := ParseLakeSpec("tables"); err == nil {
		t.Fatal("missing = accepted")
	}
	if s, err := ParseLakeSpec(""); err != nil || s != (LakeSpec{}) {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	// String round-trips through ParseLakeSpec.
	orig := LakeSpec{Seed: 4, Tables: 60, Rows: 25, Dirty: DirtySpec{Unicode: 0.1}}
	back, err := ParseLakeSpec(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Normalized() != orig.Normalized() {
		t.Fatalf("String round-trip: %+v != %+v", back.Normalized(), orig.Normalized())
	}
}

func TestLakeSpecDirtyCSVIngestion(t *testing.T) {
	spec := LakeSpec{Seed: 77, Tables: 10, Rows: 30,
		Dirty: DirtySpec{Ragged: 0.3, MixedTypes: 0.2, Unicode: 0.2, Null: 0.1, Empty: 0.1}}
	l := lake.New("ingest")
	for i := 0; i < spec.Normalized().Tables; i++ {
		tb, err := table.ReadCSV(spec.TableName(i), bytes.NewReader(spec.CSV(i)))
		if err != nil {
			t.Fatalf("dirty CSV %d unparseable: %v", i, err)
		}
		if err := l.Add(tb); err != nil {
			t.Fatalf("lake ingest %d: %v", i, err)
		}
	}
	// Duplicate ingestion must fail with the typed error, not a panic.
	dup, _ := table.ReadCSV(spec.TableName(0), bytes.NewReader(spec.CSV(0)))
	if err := l.Add(dup); !errors.Is(err, lake.ErrDuplicateTable) {
		t.Fatalf("duplicate add: %v, want ErrDuplicateTable", err)
	}
}

func BenchmarkLakeSpecGenerate(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := LakeSpec{Seed: 1, Tables: 400, Rows: 40, FKFraction: 0.3, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if l := spec.Generate(); l.Len() != 400 {
					b.Fatal("bad lake")
				}
			}
		})
	}
}
