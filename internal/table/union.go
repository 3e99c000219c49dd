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
// provenance slice is index-aligned with the unioned rows.
func OuterUnion(name string, targetHeaders []string, mappings []Mapping) (*Table, []Provenance, error) {
	out := New(name, targetHeaders...)
	var prov []Provenance
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
		for r := 0; r < m.Source.NumRows(); r++ {
			row := make(Tuple, len(targetHeaders))
			for i, src := range m.TargetToSource {
				if src < 0 {
					row[i] = Null
				} else {
					row[i] = m.Source.Cell(r, src)
				}
			}
			if err := out.AppendRow(row); err != nil {
				return nil, nil, err
			}
			prov = append(prov, Provenance{Table: m.Source.Name, Row: r})
		}
	}
	return out, prov, nil
}
