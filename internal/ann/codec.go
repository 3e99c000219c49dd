package ann

import (
	"fmt"
	"math"

	"dust/internal/codec"
	"dust/internal/vector"
)

// Graph (de)serialization. Encode/Decode handle one payload section — the
// enclosing envelope (kind codec.KindANN, owned by the searcher that
// embeds the graph alongside its own identity) provides magic, versioning,
// and the checksum. Decode validates every structural invariant the
// traversal code relies on — levels, link shapes, neighbor ranges, the
// entry point — so a corrupt or hostile graph fails with a typed error
// instead of panicking mid-search.
//
// The current layout (envelope version 3) stores adjacency only: the rows
// belong to the owner, which binds them after decoding (BindRows), and a
// saved graph carries no tombstones. Versions 1 and 2 stored a tombstone
// flag and a vector per node — float32 in version 1; a storage flag and
// then float32, or SQ8 codes with a per-node scale and offset, in version
// 2. Those payloads are still parsed and validated, then dropped.

// Encode appends the graph to b in the current (version 3) layout. The
// graph must be tombstone-free (Compact it first): the layout has no room
// for dead nodes.
func (ix *Index) Encode(b *codec.Buffer) {
	if ix.nDel > 0 {
		panic("ann: Encode of a graph with tombstones")
	}
	b.Int(ix.dim)
	b.Int(ix.m)
	b.Int(ix.efCon)
	b.Uvarint(ix.seed)
	n := ix.Len()
	b.Int(n)
	if n > 0 {
		b.Int(int(ix.entry))
		b.Int(int(ix.maxLvl))
	}
	for i := 0; i < n; i++ {
		b.Int(int(ix.levels[i]))
		for _, nbs := range ix.links[i] {
			b.Int(len(nbs))
			for _, nb := range nbs {
				b.Int(int(nb))
			}
		}
	}
}

// Decode reads a graph written under envelope version 1, 2 or 3 from sc,
// validating structure as it goes. The graph has no rows until BindRows.
// On any inconsistency it returns an error wrapping codec.ErrCorrupt (or
// the scanner's truncation error) and never panics.
func Decode(sc *codec.Scanner, version uint16) (*Index, error) {
	fail := func(format string, args ...any) (*Index, error) {
		return nil, fmt.Errorf("ann: "+format+": %w", append(args, codec.ErrCorrupt)...)
	}
	sq8 := false
	if version == 2 {
		sq8 = sc.Bool()
	}
	dim := sc.Int()
	m := sc.Int()
	efCon := sc.Int()
	seed := sc.Uvarint()
	n := sc.Int()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if dim <= 0 || dim > 1<<16 {
		return fail("dimension %d out of range", dim)
	}
	if m <= 0 || m > 1<<12 || efCon <= 0 || efCon > 1<<20 {
		return fail("parameters M=%d ef=%d out of range", m, efCon)
	}
	ix := New(dim, Config{M: m, EfConstruction: efCon, Seed: seed})
	if n == 0 {
		return ix, sc.Err()
	}
	entry := sc.Int()
	maxLvl := sc.Int()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if entry < 0 || entry >= n {
		return fail("entry point %d out of range [0,%d)", entry, n)
	}
	if maxLvl < 0 || maxLvl > maxLevel {
		return fail("max level %d out of range", maxLvl)
	}
	ix.entry, ix.maxLvl = int32(entry), int32(maxLvl)

	for i := 0; i < n && sc.Err() == nil; i++ {
		lvl := sc.Int()
		dead := false
		if version < 3 {
			dead = sc.Bool()
			if err := skipLegacyVector(sc, sq8, dim); err != nil {
				return fail("node %d: %v", i, err)
			}
		}
		if sc.Err() != nil {
			break
		}
		if lvl < 0 || lvl > maxLvl {
			return fail("node %d level %d out of range [0,%d]", i, lvl, maxLvl)
		}
		layers := make([][]int32, lvl+1)
		for l := 0; l <= lvl && sc.Err() == nil; l++ {
			cnt := sc.Int()
			if sc.Err() != nil {
				break
			}
			budget := 2 * m
			if l > 0 {
				budget = m
			}
			if cnt > budget {
				return fail("node %d layer %d has %d neighbors, budget %d", i, l, cnt, budget)
			}
			nbs := make([]int32, 0, cnt)
			for j := 0; j < cnt && sc.Err() == nil; j++ {
				nb := sc.Int()
				if sc.Err() != nil {
					break
				}
				if nb >= n {
					return fail("node %d layer %d neighbor %d out of range [0,%d)", i, l, nb, n)
				}
				nbs = append(nbs, int32(nb))
			}
			layers[l] = nbs
		}
		ix.levels = append(ix.levels, int32(lvl))
		ix.deleted = append(ix.deleted, dead)
		if dead {
			ix.nDel++
		}
		ix.links = append(ix.links, layers)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ix.levels[entry] != int32(maxLvl) {
		return fail("entry point %d has level %d, graph declares %d", entry, ix.levels[entry], maxLvl)
	}
	// Edges may only point at nodes that exist on that layer; the greedy
	// descent indexes links[nb][l] without re-checking.
	for i, layers := range ix.links {
		for l, nbs := range layers {
			for _, nb := range nbs {
				if int(ix.levels[nb]) < l {
					return fail("node %d layer %d links to node %d of level %d", i, l, nb, ix.levels[nb])
				}
			}
		}
	}
	return ix, nil
}

// skipLegacyVector reads and validates the vector a version 1 or 2 node
// carried — float32s, or an SQ8 record (scale, offset, one code byte per
// dimension) — and drops it. A NaN/Inf or negative scale was a corrupt
// file when the codes were navigated and still is.
func skipLegacyVector(sc *codec.Scanner, sq8 bool, dim int) error {
	if !sq8 {
		if v := sc.Float32s(); sc.Err() == nil && len(v) != dim {
			return fmt.Errorf("dim %d, want %d", len(v), dim)
		}
		return nil
	}
	scale, offset := sc.Float32(), sc.Float32()
	codes := sc.RawBytes()
	switch {
	case sc.Err() != nil:
	case len(codes) != dim:
		return fmt.Errorf("%d codes, want %d", len(codes), dim)
	case bad32(scale) || bad32(offset) || scale < 0:
		return fmt.Errorf("SQ8 scale=%v offset=%v invalid", scale, offset)
	}
	return nil
}

func bad32(f float32) bool {
	f64 := float64(f)
	return math.IsNaN(f64) || math.IsInf(f64, 0)
}

// BindRows gives a decoded graph its rows, one per node id, aliased like
// Add's. Only live nodes need one: a tombstoned node may get nil, and such
// a graph must be compacted before it is searched or grown. It panics
// unless len(rows) == Len() and every row handed over has the graph's
// dimension — the owner derives rows from the same table set it has just
// validated the graph against.
func (ix *Index) BindRows(rows []vector.Vec) {
	if len(rows) != ix.Len() {
		panic(fmt.Sprintf("ann: BindRows got %d rows for %d nodes", len(rows), ix.Len()))
	}
	for id, r := range rows {
		if (r != nil || !ix.deleted[id]) && len(r) != ix.dim {
			panic(fmt.Sprintf("ann: BindRows row %d has dimension %d, index holds %d", id, len(r), ix.dim))
		}
	}
	ix.rows = rows
}
