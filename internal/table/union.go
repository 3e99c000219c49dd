package table

import "fmt"

// Provenance records where a unioned tuple came from. DUST's pruning step
// (paper §5.1) groups tuples by source table, and the case study (§6.6)
// needs per-table attribution, so the outer union keeps provenance alongside
// the tuples.
type Provenance struct {
	Table string // source table name
	Row   int    // row index within the source table
}

// Mapping describes how one source table's columns align to the target
// (query) schema: TargetToSource[i] is the source column index that aligns
// with target column i, or -1 when the source table has no aligned column
// (outer union pads those cells with Null).
type Mapping struct {
	Source         *Table
	TargetToSource []int
}

// OuterUnion unions the mapped tables into a single table with the target
// headers, padding missing columns with Null (paper §3.3). The returned
// provenance slice is index-aligned with the unioned rows. Every column and
// the provenance are sized once, from the mapped tables' total row count,
// and written in place.
func OuterUnion(name string, targetHeaders []string, mappings []Mapping) (*Table, []Provenance, error) {
	total := 0
	for _, m := range mappings {
		if len(m.TargetToSource) != len(targetHeaders) {
			return nil, nil, fmt.Errorf("outer union: mapping for %s has %d entries, want %d",
				m.Source.Name, len(m.TargetToSource), len(targetHeaders))
		}
		for _, src := range m.TargetToSource {
			if src >= m.Source.NumCols() {
				return nil, nil, fmt.Errorf("outer union: mapping for %s references column %d of %d",
					m.Source.Name, src, m.Source.NumCols())
			}
		}
		total += m.Source.NumRows()
	}
	out := New(name, targetHeaders...)
	if total == 0 {
		return out, nil, nil
	}
	for i := range out.Columns {
		out.Columns[i].Values = make([]string, total) // Null-filled
	}
	prov := make([]Provenance, 0, total)
	for _, m := range mappings {
		r0 := len(prov)
		for r := 0; r < m.Source.NumRows(); r++ {
			prov = append(prov, Provenance{Table: m.Source.Name, Row: r})
		}
		for i, src := range m.TargetToSource {
			if src >= 0 {
				copy(out.Columns[i].Values[r0:], m.Source.Columns[src].Values)
			}
		}
	}
	return out, prov, nil
}
