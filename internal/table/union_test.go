package table

import (
	"fmt"
	"reflect"
	"testing"
)

// The Fig. 1 scenario: query table (a), unionable tables (b) and (d).
func fig1Tables() (query, b, d *Table) {
	query = parksTable() // Park Name, Supervisor, City, Country

	b = New("table_b", "Park Name", "Supervisor", "Country")
	b.MustAppendRow("River Park", "Vera Onate", "USA")
	b.MustAppendRow("West Lawn Park", "Paul Veliotis", "USA")
	b.MustAppendRow("Hyde Park", "Jenny Rishi", "UK")

	d = New("table_d", "Park Name", "Park City", "Park Country", "Park Phone", "Supervised by")
	d.MustAppendRow("Chippewa Park", "Brandon, MN", "USA", "773 731-0380", "Tim Erickson")
	d.MustAppendRow("Lawler Park", "Chicago, IL", "USA", "773 284-7328", "Enrique Garcia")
	return query, b, d
}

func TestOuterUnionFig1(t *testing.T) {
	query, b, d := fig1Tables()
	target := query.Headers()
	mappings := []Mapping{
		// table (b): Park Name->0, Supervisor->1, no City, Country->2
		{Source: b, TargetToSource: []int{0, 1, -1, 2}},
		// table (d): Park Name->0, Supervised by->4, Park City->1, Park Country->2
		{Source: d, TargetToSource: []int{0, 4, 1, 2}},
	}
	u, prov, err := OuterUnion("unioned", target, mappings)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumRows() != 5 {
		t.Fatalf("unioned rows = %d, want 5", u.NumRows())
	}
	if len(prov) != 5 {
		t.Fatalf("provenance length = %d, want 5", len(prov))
	}
	// Row from table (b) has null City.
	if u.Cell(0, 2) != Null {
		t.Errorf("table b City cell = %q, want Null", u.Cell(0, 2))
	}
	// Row from table (d) pulled the aligned Supervised by column.
	if u.Cell(3, 1) != "Tim Erickson" {
		t.Errorf("table d Supervisor cell = %q, want Tim Erickson", u.Cell(3, 1))
	}
	if u.Cell(3, 2) != "Brandon, MN" {
		t.Errorf("table d City cell = %q", u.Cell(3, 2))
	}
	if prov[0].Table != "table_b" || prov[0].Row != 0 {
		t.Errorf("prov[0] = %+v", prov[0])
	}
	if prov[4].Table != "table_d" || prov[4].Row != 1 {
		t.Errorf("prov[4] = %+v", prov[4])
	}
	// The Park Phone column was never mapped and must not appear.
	if u.NumCols() != 4 {
		t.Errorf("unioned cols = %d, want 4 (discard unaligned)", u.NumCols())
	}
}

func TestOuterUnionArityErrors(t *testing.T) {
	query, b, _ := fig1Tables()
	_, _, err := OuterUnion("bad", query.Headers(), []Mapping{
		{Source: b, TargetToSource: []int{0, 1}}, // wrong arity
	})
	if err == nil {
		t.Error("OuterUnion with short mapping should error")
	}
	_, _, err = OuterUnion("bad", query.Headers(), []Mapping{
		{Source: b, TargetToSource: []int{0, 1, 2, 99}}, // out of range
	})
	if err == nil {
		t.Error("OuterUnion with out-of-range source index should error")
	}
}

// TestOuterUnionMatchesRowByRow holds OuterUnion to the row-by-row union it
// replaced — a fresh tuple a row, appended — cell for cell and in
// provenance, over mappings that pad, reorder and repeat columns, and a
// table with no rows.
func TestOuterUnionMatchesRowByRow(t *testing.T) {
	query, b, d := fig1Tables()
	target := query.Headers()
	empty := New("table_e", "Park Name")
	mappings := []Mapping{
		{Source: b, TargetToSource: []int{0, 1, -1, 2}},
		{Source: empty, TargetToSource: []int{0, -1, -1, 0}},
		{Source: d, TargetToSource: []int{0, 4, 1, 2}},
		{Source: b, TargetToSource: []int{2, 2, 0, -1}},
	}
	got, prov, err := OuterUnion("unioned", target, mappings)
	if err != nil {
		t.Fatal(err)
	}
	want := New("unioned", target...)
	var wantProv []Provenance
	for _, m := range mappings {
		for r := 0; r < m.Source.NumRows(); r++ {
			row := make(Tuple, len(target))
			for i, src := range m.TargetToSource {
				if src >= 0 {
					row[i] = m.Source.Cell(r, src)
				}
			}
			want.MustAppendRow(row...)
			wantProv = append(wantProv, Provenance{Table: m.Source.Name, Row: r})
		}
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(prov, wantProv) {
		t.Fatalf("OuterUnion = %v %v, want %v %v", got, prov, want, wantProv)
	}
}

// TestOuterUnionAllocs: the union sizes its columns and its provenance
// once, so its allocation count depends on the column and table counts,
// not on the row count.
func TestOuterUnionAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		a := New("a", "x", "y", "z")
		b := New("b", "y", "x")
		for r := 0; r < rows; r++ {
			a.MustAppendRow(fmt.Sprint("x", r), fmt.Sprint("y", r), fmt.Sprint("z", r))
			b.MustAppendRow(fmt.Sprint("y", r), fmt.Sprint("x", r))
		}
		mappings := []Mapping{
			{Source: a, TargetToSource: []int{0, 1, 2}},
			{Source: b, TargetToSource: []int{1, 0, -1}},
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := OuterUnion("u", []string{"x", "y", "z"}, mappings); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(10), allocs(5000)
	if big != small || big > 10 {
		t.Errorf("OuterUnion allocates %v times over 20 rows and %v over 10 000, want the same, at most 10", small, big)
	}
}
