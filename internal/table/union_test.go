package table

import (
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
