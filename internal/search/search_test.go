package search

import (
	"math"
	"testing"

	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/table"
)

func testBench(t *testing.T) *datagen.Benchmark {
	t.Helper()
	return datagen.Generate("search-test", datagen.Config{
		Seed: 71, Domains: 5, TablesPerBase: 6, BaseRows: 60, MinRows: 15, MaxRows: 30,
	})
}

func TestStarmieRetrievesUnionableTables(t *testing.T) {
	b := testBench(t)
	s := NewStarmie(b.Lake)
	q := b.Queries[0]
	truth := map[string]bool{}
	for _, n := range b.Unionable[q.Name] {
		truth[n] = true
	}
	hits := 0
	for _, sc := range TopK(s, q, 6) {
		if truth[sc.Table.Name] {
			hits++
		}
	}
	if hits < 4 {
		t.Errorf("starmie top-6 contains %d/6 unionable tables, want >= 4", hits)
	}
}

// rankWith binds search.TopK to a Searcher, the ranking MAP takes.
func rankWith(s Searcher) func(*table.Table, int) []Scored {
	return func(q *table.Table, k int) []Scored { return TopK(s, q, k) }
}

func TestStarmieMAPReasonable(t *testing.T) {
	b := testBench(t)
	m := MAP(rankWith(NewStarmie(b.Lake)), b, 6)
	if m < 0.6 {
		t.Errorf("starmie MAP = %v, want >= 0.6", m)
	}
	if m > 1.0001 {
		t.Errorf("MAP = %v out of range", m)
	}
}

func TestD3LRetrievesUnionableTables(t *testing.T) {
	b := testBench(t)
	d := NewD3L(b.Lake)
	m := MAP(d.TopK, b, 6)
	if m < 0.6 {
		t.Errorf("d3l MAP = %v, want >= 0.6", m)
	}
}

// TestMAPFullRanking pins MAP at k <= 0: it scores the full ranking, whose
// average precision runs over every unionable table — exactly MAP at a k
// as large as the lake — instead of counting no query at all.
func TestMAPFullRanking(t *testing.T) {
	b := testBench(t)
	d := NewD3L(b.Lake)
	full := MAP(d.TopK, b, 0)
	if full <= 0 {
		t.Fatalf("MAP at k=0 = %v, want > 0", full)
	}
	if whole := MAP(d.TopK, b, b.Lake.Len()); full != whole {
		t.Errorf("MAP at k=0 = %v, at k=%d = %v; want equal", full, b.Lake.Len(), whole)
	}
}

func TestSearchersRankedDescending(t *testing.T) {
	b := testBench(t)
	q := b.Queries[0]
	for name, res := range map[string][]Scored{
		"starmie": TopK(NewStarmie(b.Lake), q, 10), "d3l": NewD3L(b.Lake).TopK(q, 10),
	} {
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Errorf("%s results not sorted at %d", name, i)
			}
		}
	}
}

func TestTopKBounds(t *testing.T) {
	b := testBench(t)
	s := NewStarmie(b.Lake)
	if got := len(TopK(s, b.Queries[0], 3)); got != 3 {
		t.Errorf("TopK(3) = %d results", got)
	}
	if got := len(TopK(s, b.Queries[0], 0)); got != b.Lake.Len() {
		t.Errorf("TopK(0) = %d results, want all %d", got, b.Lake.Len())
	}
}

func TestHeaderSimilarity(t *testing.T) {
	if got := headerSimilarity("Park Name", "Park Name"); got != 1 {
		t.Errorf("identical headers similarity = %v", got)
	}
	if got := headerSimilarity("Park Name", "Name of Park"); got <= 0.3 {
		t.Errorf("overlapping headers similarity = %v, want > 0.3", got)
	}
	if got := headerSimilarity("Budget", "Species"); got != 0 {
		t.Errorf("disjoint headers similarity = %v, want 0", got)
	}
}

func TestFormatProfile(t *testing.T) {
	phoneProfile := profileFormat([]string{"773 731-0380", "773 284-7328"})
	nameProfile := profileFormat([]string{"River Park", "Hyde Park"})
	moneyProfile := profileFormat([]string{"$12,300,000", "$8,100,000"})
	if s := phoneProfile.similarity(moneyProfile); s >= phoneProfile.similarity(profileFormat([]string{"771 555-0100"})) {
		t.Errorf("phone should be closer to phone than to money (got %v)", s)
	}
	if s := nameProfile.similarity(phoneProfile); s > 0.8 {
		t.Errorf("name/phone format similarity = %v, want < 0.8", s)
	}
	empty := profileFormat(nil)
	if empty.similarity(empty) < 0.99 {
		t.Error("empty profiles should be similar to themselves")
	}
}

func TestNumericProfile(t *testing.T) {
	a := profileNumeric([]string{"10", "12", "11"})
	b := profileNumeric([]string{"11", "13", "10"})
	c := profileNumeric([]string{"90000", "120000"})
	text := profileNumeric([]string{"hello", "world"})
	if a.similarity(b) <= a.similarity(c) {
		t.Error("close numeric distributions should be more similar than distant ones")
	}
	if text.frac != 0 {
		t.Errorf("text column numeric fraction = %v", text.frac)
	}
	if a.similarity(text) > 0.5 {
		t.Errorf("numeric/text similarity = %v, want low", a.similarity(text))
	}
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42", 42, true},
		{"$1,200", 1200, true},
		{" 3.5 ", 3.5, true},
		{"abc", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, ok := parseNumber(c.in)
		if ok != c.ok || (ok && math.Abs(got-c.want) > 1e-12) {
			t.Errorf("parseNumber(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestTupleSearchFavorsQueryDuplicates(t *testing.T) {
	// Build a lake table containing an exact copy of a query tuple plus
	// novel tuples: the duplicate must rank first (the redundancy
	// phenomenon of Example 1 / Table 3).
	q := table.New("q", "Park Name", "Country")
	q.MustAppendRow("River Park", "USA")
	q.MustAppendRow("Hyde Park", "UK")

	lt := table.New("lt", "Park Name", "Country")
	lt.MustAppendRow("Chippewa Park", "USA")
	lt.MustAppendRow("River Park", "USA") // duplicate of query row 0
	lt.MustAppendRow("Lawler Park", "USA")

	ts := NewTupleSearch([]*table.Table{lt})
	if ts.Len() != 3 {
		t.Fatalf("indexed %d tuples", ts.Len())
	}
	res := ts.TopK(q, 3)
	if res[0].Row != 1 {
		t.Errorf("top tuple = row %d, want the duplicate (row 1)", res[0].Row)
	}
	if res[0].Score <= res[1].Score {
		t.Error("duplicate should strictly outscore novel tuples")
	}
}

func TestMAPEmptyBenchmark(t *testing.T) {
	b := &datagen.Benchmark{}
	if MAP(rankWith(NewStarmie(lake.New("empty"))), b, 5) != 0 {
		t.Error("MAP of empty benchmark should be 0")
	}
}
