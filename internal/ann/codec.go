package ann

import (
	"fmt"

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
// The layout stores adjacency only: the rows belong to the owner, which
// binds them after decoding (BindRows), and a saved graph carries no
// tombstones.

// Encode appends the graph to b. The graph must be tombstone-free (Compact
// it first): the layout has no room for dead nodes.
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

// Decode reads a graph written by Encode from sc, validating structure as
// it goes. The graph has no rows until BindRows. On any inconsistency it
// returns an error wrapping codec.ErrCorrupt (or the scanner's truncation
// error) and never panics.
func Decode(sc *codec.Scanner) (*Index, error) {
	fail := func(format string, args ...any) (*Index, error) {
		return nil, fmt.Errorf("ann: "+format+": %w", append(args, codec.ErrCorrupt)...)
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
		ix.deleted = append(ix.deleted, false)
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

// BindRows gives a decoded graph its rows, one per node id, aliased like
// Add's. It panics unless len(rows) == Len() and every row has the graph's
// dimension — the owner derives rows from the same table set it has just
// validated the graph against.
func (ix *Index) BindRows(rows []vector.Vec) {
	if len(rows) != ix.Len() {
		panic(fmt.Sprintf("ann: BindRows got %d rows for %d nodes", len(rows), ix.Len()))
	}
	for id, r := range rows {
		if len(r) != ix.dim {
			panic(fmt.Sprintf("ann: BindRows row %d has dimension %d, index holds %d", id, len(r), ix.dim))
		}
	}
	ix.rows = rows
}
