// Package table defines the relational model used throughout the DUST
// reproduction: tables with named columns; tuples; CSV serialization; row
// selection; and the outer-union operation that forms unionable tuples after
// column alignment (paper §3.3).
package table

import (
	"fmt"
	"strings"
)

// Null is the placeholder value used when outer union pads a tuple with a
// column that its source table does not have (paper §3.3 uses "nan").
const Null = ""

// Column is a named column of string-encoded values.
type Column struct {
	Name   string
	Values []string
}

// Tuple is one row of a table: a slice of string cells, index-aligned with
// the owning table's columns.
type Tuple []string

// Table is an in-memory relational table. Tables are identified by name
// within a data lake; the benchmark generators also record the base table a
// generated table was derived from (ground truth for unionability).
type Table struct {
	Name    string
	Columns []Column
	// Base identifies the base table this table was generated from, or ""
	// for hand-made tables. Two generated tables are unionable iff they
	// share the same Base (TUS/SANTOS benchmark convention, paper §6.1).
	Base string
}

// New creates a table with the given column names and no rows.
func New(name string, columns ...string) *Table {
	t := &Table{Name: name}
	for _, c := range columns {
		t.Columns = append(t.Columns, Column{Name: c})
	}
	return t
}

// NumRows returns the number of tuples in the table.
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return len(t.Columns[0].Values)
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.Columns) }

// Headers returns the column names in order.
func (t *Table) Headers() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// ColumnIndex returns the index of the column with the given name, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// AppendRow appends a tuple. The tuple length must match the column count.
func (t *Table) AppendRow(row Tuple) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("table %s: row has %d cells, want %d", t.Name, len(row), len(t.Columns))
	}
	for i := range t.Columns {
		t.Columns[i].Values = append(t.Columns[i].Values, row[i])
	}
	return nil
}

// MustAppendRow appends a tuple and panics on arity mismatch. It is intended
// for generators and tests where the arity is statically correct.
func (t *Table) MustAppendRow(cells ...string) {
	if err := t.AppendRow(cells); err != nil {
		panic(err)
	}
}

// Row returns the i-th tuple as a fresh slice.
func (t *Table) Row(i int) Tuple {
	row := make(Tuple, len(t.Columns))
	for j, c := range t.Columns {
		row[j] = c.Values[i]
	}
	return row
}

// Rows returns all tuples.
func (t *Table) Rows() []Tuple {
	out := make([]Tuple, t.NumRows())
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

// Cell returns the value of column j in row i.
func (t *Table) Cell(i, j int) string { return t.Columns[j].Values[i] }

// Select returns a new table containing the rows at the given indices.
func (t *Table) Select(name string, rows []int) (*Table, error) {
	out := &Table{Name: name, Base: t.Base}
	for _, c := range t.Columns {
		out.Columns = append(out.Columns, Column{Name: c.Name})
	}
	for _, r := range rows {
		if r < 0 || r >= t.NumRows() {
			return nil, fmt.Errorf("table %s: row index %d out of range [0,%d)", t.Name, r, t.NumRows())
		}
		for j := range out.Columns {
			out.Columns[j].Values = append(out.Columns[j].Values, t.Columns[j].Values[r])
		}
	}
	return out, nil
}

// Clone returns a deep copy of the table under a new name.
func (t *Table) Clone(name string) *Table {
	out := &Table{Name: name, Base: t.Base}
	for _, c := range t.Columns {
		vals := make([]string, len(c.Values))
		copy(vals, c.Values)
		out.Columns = append(out.Columns, Column{Name: c.Name, Values: vals})
	}
	return out
}

// String renders a compact textual preview (header plus up to 5 rows).
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d rows x %d cols)\n", t.Name, t.NumRows(), t.NumCols())
	b.WriteString(strings.Join(t.Headers(), " | "))
	b.WriteByte('\n')
	n := t.NumRows()
	if n > 5 {
		n = 5
	}
	for i := 0; i < n; i++ {
		b.WriteString(strings.Join(t.Row(i), " | "))
		b.WriteByte('\n')
	}
	if t.NumRows() > 5 {
		fmt.Fprintf(&b, "... (%d more rows)\n", t.NumRows()-5)
	}
	return b.String()
}
