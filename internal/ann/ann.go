// Package ann implements the approximate candidate-generation backend of
// the staged query plan (retrieve -> score -> diversify): a Hierarchical
// Navigable Small World graph (Malkov & Yashunin) over normalized vectors,
// searched with vector.SquaredEuclidean — monotone in cosine similarity for
// unit vectors, so the nearest candidates under it are the highest-cosine
// ones with no sqrt per hop.
//
// The index owns no vectors. Each node holds its row as a vector.Vec that
// aliases the owner's storage (Starmie's immutable per-table blocks), so
// the graph costs its adjacency and nothing more, and navigation runs on
// the very float64 rows the owner scores with.
//
// The index is append-only with tombstoned deletion: Remove marks a node
// dead so searches skip it in their results while still traversing it for
// connectivity — a dead node keeps its row through its slice header — and
// DeletedFraction lets the owning searcher decide when to rebuild from the
// live nodes (the searchers rebuild past one half dead). Searches are safe
// to run concurrently; mutations (Add/Remove) are not safe concurrently
// with anything — snapshot-swapped serving mutates a Clone and swaps it in.
//
// Determinism: level assignment hashes (seed, node id) instead of drawing
// from a shared RNG, so the graph produced by a given insertion sequence
// is identical across runs, worker counts, and processes — which is what
// lets recall tests, golden files, and the incremental-vs-rebuilt
// equivalence harness pin ANN behavior at all. Build extends the contract
// to parallel construction: batches plan against a frozen graph prefix and
// commit in id order, so the built graph is bit-identical at every worker
// count.
package ann

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"dust/internal/vector"
)

// Defaults; Config zero values take them.
const (
	// DefaultM is the neighbor budget per node per layer (the base layer
	// allows 2M), the main memory/recall dial of HNSW.
	DefaultM = 16
	// DefaultEfConstruction is the beam width used while inserting.
	DefaultEfConstruction = 200
	// DefaultSeed salts the per-node level hash.
	DefaultSeed = 0x_D057_AA11_2026
	// maxLevel caps node levels so a corrupt or adversarial file cannot
	// demand absurd per-node layer allocations (ln-distributed levels
	// stay in single digits for any realistic index size).
	maxLevel = 48
)

// Config shapes graph construction. The zero value takes the defaults.
type Config struct {
	M              int    // max neighbors per node per layer (base layer: 2M)
	EfConstruction int    // insertion beam width
	Seed           uint64 // level-hash salt
}

func (c *Config) defaults() {
	if c.M <= 0 {
		c.M = DefaultM
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = DefaultEfConstruction
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
}

// Index is an HNSW graph. Node ids are assigned densely in insertion
// order and never reused; a removed node keeps its id as a tombstone
// until the owner rebuilds.
type Index struct {
	dim   int
	m     int
	efCon int
	seed  uint64
	mL    float64 // level multiplier, 1/ln(M)

	// rows holds each node's row, aliased from the owner, never copied or
	// written. A decoded graph has no rows until BindRows.
	rows    []vector.Vec
	levels  []int32
	links   [][][]int32 // node -> layer -> neighbor ids
	deleted []bool
	nDel    int
	entry   int32 // -1 while empty
	maxLvl  int32

	// scratch pools per-search state — the visited set and both beam
	// heaps — so one query pays a single Get instead of an allocation
	// per searchLayer call; a pointer so clones (and the shallow copies
	// Clone starts from) share it safely.
	scratch *sync.Pool
}

// searchScratch is the reusable state of one traversal: a visited set and
// the two beam heaps. One instance serves a whole Search or insertion
// (every searchLayer call reuses it), and instances are pooled across
// searches.
type searchScratch struct {
	visited visitSet
	cand    minHeap
	beam    maxHeap
}

// visitSet is a generation-stamped visited set: marking and testing are
// O(1), and reuse across searches skips the O(n) clear — the slice is
// only re-zeroed when it grows or the uint32 generation wraps.
type visitSet struct {
	gen   uint32
	marks []uint32
}

// next prepares the set for one traversal over n nodes.
func (v *visitSet) next(n int) {
	if len(v.marks) < n {
		v.marks = make([]uint32, n)
		v.gen = 0
	}
	if v.gen == ^uint32(0) {
		clear(v.marks)
		v.gen = 0
	}
	v.gen++
}

// visit marks id, reporting whether this is its first visit.
func (v *visitSet) visit(id int32) bool {
	if v.marks[id] == v.gen {
		return false
	}
	v.marks[id] = v.gen
	return true
}

// New creates an empty index over dim-dimensional vectors.
func New(dim int, cfg Config) *Index {
	if dim <= 0 {
		panic(fmt.Sprintf("ann: dimension %d must be positive", dim))
	}
	cfg.defaults()
	return &Index{
		dim:     dim,
		m:       cfg.M,
		efCon:   cfg.EfConstruction,
		seed:    cfg.Seed,
		mL:      1 / math.Log(float64(cfg.M)),
		entry:   -1,
		scratch: &sync.Pool{New: func() any { return new(searchScratch) }},
	}
}

// Dim returns the vector dimension.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of nodes, tombstones included.
func (ix *Index) Len() int { return len(ix.levels) }

// Live returns the number of non-tombstoned nodes.
func (ix *Index) Live() int { return ix.Len() - ix.nDel }

// DeletedFraction returns the tombstone share, the owner's rebuild signal.
func (ix *Index) DeletedFraction() float64 {
	if ix.Len() == 0 {
		return 0
	}
	return float64(ix.nDel) / float64(ix.Len())
}

// Edges returns the number of directed links over every layer.
func (ix *Index) Edges() int {
	n := 0
	for _, layers := range ix.links {
		for _, nbs := range layers {
			n += len(nbs)
		}
	}
	return n
}

// Bytes estimates the index's resident footprint: adjacency lists and
// per-node bookkeeping, slice headers included and allocator slack not. The
// rows belong to the owner and are not counted; their headers are.
func (ix *Index) Bytes() int64 {
	b := int64(ix.Edges()) * 4
	for _, layers := range ix.links {
		b += 24 + int64(len(layers))*24 // layer-slice header + one per layer
	}
	return b + int64(ix.Len())*(24+4+1) // row header, level, tombstone
}

// item is one (distance, node) pair; all orderings tie-break on id so
// traversal is deterministic.
type item struct {
	d  float64
	id int32
}

func (a item) less(b item) bool { return a.d < b.d || (a.d == b.d && a.id < b.id) }

// compareItems is less as a three-way comparison, for slices.SortFunc:
// the order is total, so any sort yields the same sequence.
func compareItems(a, b item) int {
	if c := cmp.Compare(a.d, b.d); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// splitmix64 is the per-node level hash (Steele et al.); a hash rather
// than an RNG so node i's level depends only on (seed, i).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (ix *Index) levelFor(id int) int {
	u := (float64(splitmix64(ix.seed+uint64(id))>>11) + 0.5) / (1 << 53)
	l := int(-math.Log(u) * ix.mL)
	if l > maxLevel {
		l = maxLevel
	}
	return l
}

// appendNode books row as the next node's row, plus the id-parallel graph
// state, and returns the node's id. The caller must insert the node
// afterwards.
func (ix *Index) appendNode(row vector.Vec) int32 {
	id := int32(len(ix.levels))
	lvl := ix.levelFor(int(id))
	ix.rows = append(ix.rows, row)
	ix.levels = append(ix.levels, int32(lvl))
	ix.deleted = append(ix.deleted, false)
	ix.links = append(ix.links, make([][]int32, lvl+1))
	return id
}

// Add inserts row and returns its node id. The index keeps row itself, not
// a copy: the caller must never write to it again.
func (ix *Index) Add(row vector.Vec) int {
	if len(row) != ix.dim {
		panic(fmt.Sprintf("ann: Add dimension %d, index holds %d", len(row), ix.dim))
	}
	id := ix.appendNode(row)
	ix.insert(id)
	return int(id)
}

// insert links an appended node into the graph: plan against the current
// graph, then commit. This is the sequential building block shared by
// Add, Compact, and the warm-up prefix of Build.
func (ix *Index) insert(id int32) {
	sc := ix.scratch.Get().(*searchScratch)
	plan := ix.planNode(id, sc)
	ix.scratch.Put(sc)
	ix.commitNode(id, plan)
}

// planNode runs the insertion navigation for node id against the current
// graph and returns its selected neighbors per layer (index = layer;
// layers above the current graph top stay nil). It never modifies the
// graph, which is what lets Build plan a whole batch concurrently against
// a frozen prefix.
func (ix *Index) planNode(id int32, sc *searchScratch) [][]int32 {
	lvl := int(ix.levels[id])
	neigh := make([][]int32, lvl+1)
	if ix.entry < 0 {
		return neigh
	}
	q := ix.rows[id]
	ep := ix.entry
	for l := int(ix.maxLvl); l > lvl; l-- {
		ep = ix.greedy(q, ep, l)
	}
	top := lvl
	if int(ix.maxLvl) < top {
		top = int(ix.maxLvl)
	}
	for l := top; l >= 0; l-- {
		found := ix.searchLayer(q, sc, ep, ix.efCon, l, false)
		neigh[l] = ix.selectNeighbors(found, ix.m)
		if len(found) > 0 {
			ep = found[0].id
		}
	}
	return neigh
}

// commitNode installs a plan: the node's own links, reciprocal backlinks,
// and the entry-point bookkeeping. Committing immediately after planning
// reproduces the classic sequential HNSW insertion exactly.
func (ix *Index) commitNode(id int32, neigh [][]int32) {
	ix.links[id] = neigh
	for l := len(neigh) - 1; l >= 0; l-- {
		budget := ix.m
		if l == 0 {
			budget = 2 * ix.m
		}
		for _, nb := range neigh[l] {
			ix.linkBack(nb, id, l, budget)
		}
	}
	lvl := int32(len(neigh) - 1)
	if ix.entry < 0 || lvl > ix.maxLvl {
		ix.entry, ix.maxLvl = id, lvl
	}
}

// linkBack adds `id` to nb's layer-l neighbor list, re-selecting the list
// down to budget when it overflows (distances taken from nb's vantage).
func (ix *Index) linkBack(nb, id int32, l, budget int) {
	list := append(ix.links[nb][l], id)
	if len(list) <= budget {
		ix.links[nb][l] = list
		return
	}
	cands := make([]item, len(list))
	for i, o := range list {
		cands[i] = item{ix.dist(ix.rows[nb], o), o}
	}
	slices.SortFunc(cands, compareItems)
	ix.links[nb][l] = ix.selectNeighbors(cands, budget)
}

// selectNeighbors applies the HNSW heuristic to candidates sorted by
// distance: keep a candidate only if it is closer to the query point than
// to every neighbor already kept, which preserves edges spanning distinct
// directions (and, for our clustered lakes, distinct domains) instead of
// m redundant edges into one tight cluster. Remaining slots are backfilled
// with the nearest rejects so nodes keep their full degree.
func (ix *Index) selectNeighbors(cands []item, m int) []int32 {
	out := make([]int32, 0, m)
	var rejected []item
	for _, c := range cands {
		if len(out) == m {
			break
		}
		keep := true
		for _, s := range out {
			if ix.dist(ix.rows[c.id], s) < c.d {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c.id)
		} else {
			rejected = append(rejected, c)
		}
	}
	for _, c := range rejected {
		if len(out) == m {
			break
		}
		out = append(out, c.id)
	}
	return out
}

// dist is the squared euclidean distance from q to node id's row: the one
// distance of every hop, in float64 on the owner's rows. An all-zero row
// (a column with no tokens) sits at distance 1 from every unit row.
func (ix *Index) dist(q vector.Vec, id int32) float64 {
	return vector.SquaredEuclidean(q, ix.rows[id])
}

// greedy descends one layer: repeatedly hop to the neighbor strictly
// closer to q (ties to the smaller id, so the walk cannot cycle).
func (ix *Index) greedy(q vector.Vec, ep int32, layer int) int32 {
	best := ix.dist(q, ep)
	for {
		improved := false
		for _, nb := range ix.links[ep][layer] {
			if d := ix.dist(q, nb); d < best || (d == best && nb < ep) {
				best, ep, improved = d, nb, true
			}
		}
		if !improved {
			return ep
		}
	}
}

// searchLayer is the HNSW beam search over one layer: keep the ef closest
// admissible nodes seen, expand the closest unexpanded candidate, stop
// once the next candidate cannot improve the beam. Returns the beam
// sorted by (distance, id); the returned slice aliases sc and is valid
// only until the next searchLayer call on the same scratch. With
// liveOnly, tombstoned nodes are still traversed — deletions never
// disconnect the graph — but never occupy a beam slot, so queries keep
// their full ef of live results without widening the beam by the
// tombstone count.
func (ix *Index) searchLayer(q vector.Vec, sc *searchScratch, ep int32, ef, layer int, liveOnly bool) []item {
	sc.visited.next(ix.Len())
	sc.visited.visit(ep)
	first := item{ix.dist(q, ep), ep}
	cand := append(sc.cand[:0], first)
	beam := sc.beam[:0]
	if !liveOnly || !ix.deleted[ep] {
		beam.push(first)
	}
	for len(cand) > 0 {
		c := cand.pop()
		if len(beam) >= ef && beam[0].less(c) {
			break
		}
		for _, nb := range ix.links[c.id][layer] {
			if !sc.visited.visit(nb) {
				continue
			}
			it := item{ix.dist(q, nb), nb}
			if len(beam) < ef || it.less(beam[0]) {
				cand.push(it)
				if liveOnly && ix.deleted[nb] {
					continue
				}
				beam.push(it)
				if len(beam) > ef {
					beam.pop()
				}
			}
		}
	}
	sc.cand = cand[:0]
	sc.beam = beam[:0]
	out := []item(beam)
	slices.SortFunc(out, compareItems)
	return out
}

// Search returns up to n live node ids nearest q, closest first (ties by
// id). ef bounds the base-layer beam and is clamped to at least n;
// tombstoned nodes are traversed but never hold beam slots, so query
// cost does not grow with the tombstone count.
func (ix *Index) Search(q vector.Vec, n, ef int) []int {
	if n <= 0 || ix.entry < 0 || ix.Live() == 0 {
		return nil
	}
	if len(q) != ix.dim {
		panic(fmt.Sprintf("ann: Search dimension %d, index holds %d", len(q), ix.dim))
	}
	if ef < n {
		ef = n
	}
	if ef > ix.Len() {
		ef = ix.Len()
	}
	sc := ix.scratch.Get().(*searchScratch)
	defer ix.scratch.Put(sc)
	ep := ix.entry
	for l := int(ix.maxLvl); l > 0; l-- {
		ep = ix.greedy(q, ep, l)
	}
	found := ix.searchLayer(q, sc, ep, ef, 0, true)
	if len(found) > n {
		found = found[:n]
	}
	out := make([]int, len(found))
	for i, it := range found {
		out[i] = int(it.id)
	}
	return out
}

// Remove tombstones a node: it stops appearing in search results but
// keeps routing traffic until the owner rebuilds. Removing an unknown or
// already-removed id is an error so owners catch bookkeeping bugs.
func (ix *Index) Remove(id int) error {
	if id < 0 || id >= ix.Len() {
		return fmt.Errorf("ann: Remove(%d): id out of range [0,%d)", id, ix.Len())
	}
	if ix.deleted[id] {
		return fmt.Errorf("ann: Remove(%d): already removed", id)
	}
	ix.deleted[id] = true
	ix.nDel++
	return nil
}

// Compact returns a fresh index holding only the live nodes, re-inserted
// in id order — their original insertion order, so a compacted graph is
// as deterministic as an incrementally built one. Survivors keep their
// rows, so distances are preserved exactly; only live rows are read. onLive
// reports each survivor's (old id, new id) pair in insertion order so
// owners can rebook their id-parallel state. The receiver is not
// modified.
func (ix *Index) Compact(onLive func(oldID, newID int)) *Index {
	out := New(ix.dim, Config{M: ix.m, EfConstruction: ix.efCon, Seed: ix.seed})
	for id := 0; id < ix.Len(); id++ {
		if ix.deleted[id] {
			continue
		}
		nid := out.appendNode(ix.rows[id])
		out.insert(nid)
		if onLive != nil {
			onLive(id, int(nid))
		}
	}
	return out
}

// Clone returns an independently mutable copy: adjacency lists and
// tombstones are deep-copied (insertion rewires neighbors in place) while
// the rows are shared behind a capacity-clamped view, so an Add on either
// side reallocates instead of writing into the other side's tail. Serving
// layers mutate the clone and atomically swap it in; searches in flight on
// the original keep reading a frozen graph.
func (ix *Index) Clone() *Index {
	c := *ix
	c.rows = slices.Clip(ix.rows)
	c.levels = make([]int32, len(ix.levels))
	copy(c.levels, ix.levels)
	c.deleted = make([]bool, len(ix.deleted))
	copy(c.deleted, ix.deleted)
	c.links = make([][][]int32, len(ix.links))
	for i, layers := range ix.links {
		nl := make([][]int32, len(layers))
		for l, nbs := range layers {
			nl[l] = make([]int32, len(nbs))
			copy(nl[l], nbs)
		}
		c.links[i] = nl
	}
	return &c
}
