package table

import (
	"strings"
	"testing"
)

func parksTable() *Table {
	t := New("parks", "Park Name", "Supervisor", "City", "Country")
	t.MustAppendRow("River Park", "Vera Onate", "Fresno", "USA")
	t.MustAppendRow("West Lawn Park", "Paul Veliotis", "Chicago", "USA")
	t.MustAppendRow("Hyde Park", "Jenny Rishi", "London", "UK")
	return t
}

func TestNewAndAppend(t *testing.T) {
	tb := parksTable()
	if tb.NumRows() != 3 || tb.NumCols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", tb.NumRows(), tb.NumCols())
	}
	if got := tb.Cell(1, 2); got != "Chicago" {
		t.Errorf("Cell(1,2) = %q, want Chicago", got)
	}
	if err := tb.AppendRow(Tuple{"too", "short"}); err == nil {
		t.Error("AppendRow with wrong arity should error")
	}
	if s := tb.String(); !strings.Contains(s, "parks (3 rows x 4 cols)") {
		t.Errorf("String preview = %q", s)
	}
}

func TestHeadersAndColumnIndex(t *testing.T) {
	tb := parksTable()
	h := tb.Headers()
	if len(h) != 4 || h[0] != "Park Name" {
		t.Errorf("Headers = %v", h)
	}
	if tb.ColumnIndex("City") != 2 {
		t.Errorf("ColumnIndex(City) = %d, want 2", tb.ColumnIndex("City"))
	}
	if tb.ColumnIndex("Nope") != -1 {
		t.Error("ColumnIndex of missing column should be -1")
	}
}

func TestRowAndRows(t *testing.T) {
	tb := parksTable()
	r := tb.Row(0)
	if strings.Join(r, ",") != "River Park,Vera Onate,Fresno,USA" {
		t.Errorf("Row(0) = %v", r)
	}
	// Mutating the returned row must not affect the table.
	r[0] = "X"
	if tb.Cell(0, 0) != "River Park" {
		t.Error("Row returned a live reference into the table")
	}
	if len(tb.Rows()) != 3 {
		t.Errorf("Rows len = %d", len(tb.Rows()))
	}
}

func TestSelect(t *testing.T) {
	tb := parksTable()
	s, err := tb.Select("sel", []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 2 || s.Cell(0, 0) != "Hyde Park" || s.Cell(1, 0) != "River Park" {
		t.Errorf("Select rows wrong: %v", s.Rows())
	}
	if _, err := tb.Select("bad", []int{99}); err == nil {
		t.Error("Select out of range should error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := parksTable()
	c := tb.Clone("copy")
	c.Columns[0].Values[0] = "Mutated"
	if tb.Cell(0, 0) != "River Park" {
		t.Error("Clone is shallow")
	}
	if c.Name != "copy" {
		t.Errorf("Clone name = %q", c.Name)
	}
}
