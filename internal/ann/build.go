package ann

import (
	"fmt"
	"sort"

	"dust/internal/par"
	"dust/internal/vector"
)

// buildWarmPrefix is the sequentially inserted prefix of Build: batches
// only start once the graph has enough structure that planning against a
// frozen prefix finds well-spread neighbors.
const buildWarmPrefix = 256

// buildBatch is the fixed batch width of the parallel build. Nodes in
// one batch plan against the graph frozen at the batch boundary, so a
// node can never select a batch-mate as a neighbor: the batch width is
// exactly the window of potentially missing edges. Keeping it small and
// fixed bounds that window at a few hundred predecessors out of the tens
// of thousands a node typically plans against — recall-neutral in
// practice (gated by the same tests as the sequential builder) — while
// still fanning hundreds of beam searches per batch across workers. A
// doubling schedule would scale the window with the graph and visibly
// lose recall on clustered data, where an entire cluster inserted in one
// batch ends up with no intra-cluster edges at all.
const buildBatch = 256

// Build constructs an index over rows (inserted in slice order, so ids
// equal slice positions) with a batch-parallel, deterministic schedule
// running on par worker loops. Like Add, it keeps the rows — and the rows
// slice itself — instead of copying them.
//
// The first buildWarmPrefix nodes are inserted sequentially — identical
// to calling Add in a loop. After that the remaining nodes are committed
// in fixed-width batches: every node in a batch plans its neighbors
// concurrently against the frozen pre-batch graph (planNode is
// read-only), then the batch commits in id order — own links in
// parallel (disjoint per node), backlinks grouped per target node and
// applied in inserting-id order (per-target work is disjoint too, so
// targets commit in parallel without locks), entry-point bookkeeping
// last. Each phase's output is a pure function of the frozen prefix, so
// the built graph is bit-identical at every worker count — the same
// contract the rest of the repo's par kernels follow — while the
// dominant cost (the ef-construction beam searches of the plan phase)
// scales with cores.
//
// Batching changes the construction schedule, not the invariants:
// intra-batch nodes never select each other (they are unreachable while
// frozen), a window buildBatch keeps narrow — see its comment for why
// the width is fixed rather than doubling. Recall is gated by the same
// tests as the sequential builder.
func Build(dim int, rows []vector.Vec, cfg Config, workers int) *Index {
	ix := New(dim, cfg)
	n := len(rows)
	if n == 0 {
		return ix
	}
	for i, v := range rows {
		if len(v) != dim {
			panic(fmt.Sprintf("ann: Build row %d has dimension %d, index holds %d", i, len(v), dim))
		}
	}
	workers = par.Normalize(workers)

	// Levels are a pure hash of (seed, id).
	ix.rows = rows
	ix.levels = make([]int32, n)
	ix.links = make([][][]int32, n)
	ix.deleted = make([]bool, n)
	for id := 0; id < n; id++ {
		lvl := ix.levelFor(id)
		ix.levels[id] = int32(lvl)
		ix.links[id] = make([][]int32, lvl+1)
	}

	warm := buildWarmPrefix
	if warm > n {
		warm = n
	}
	for id := 0; id < warm; id++ {
		ix.insert(int32(id))
	}
	for lo := warm; lo < n; {
		hi := lo + buildBatch
		if hi > n {
			hi = n
		}
		plans := make([][][]int32, hi-lo)
		par.For(workers, hi-lo, func(k int) {
			sc := ix.scratch.Get().(*searchScratch)
			plans[k] = ix.planNode(int32(lo+k), sc)
			ix.scratch.Put(sc)
		})
		ix.commitBatch(int32(lo), plans, workers)
		lo = hi
	}
	return ix
}

// commitBatch installs one planned batch with the same final state as
// committing the plans one by one in id order: every shared-target
// backlink sequence applies in inserting-id order, and the entry point
// advances by an id-order scan. Own links and per-target backlink groups
// touch disjoint state, so both run on par loops.
func (ix *Index) commitBatch(lo int32, plans [][][]int32, workers int) {
	par.For(workers, len(plans), func(k int) {
		ix.links[lo+int32(k)] = plans[k]
	})

	// Group backlinks by target. Plans only ever select committed
	// (pre-batch) nodes, so targets are disjoint from the batch and from
	// each other's adjacency state. Iterating plans in id order keeps
	// each target's additions in inserting-id order; targets themselves
	// are sorted so the grouping is deterministic end to end.
	type backlink struct {
		id    int32 // inserting node
		layer int32
	}
	byTarget := make(map[int32][]backlink)
	var targets []int32
	for k, neigh := range plans {
		id := lo + int32(k)
		for l, nbs := range neigh {
			for _, nb := range nbs {
				if _, seen := byTarget[nb]; !seen {
					targets = append(targets, nb)
				}
				byTarget[nb] = append(byTarget[nb], backlink{id: id, layer: int32(l)})
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	par.For(workers, len(targets), func(t int) {
		nb := targets[t]
		for _, bl := range byTarget[nb] {
			budget := ix.m
			if bl.layer == 0 {
				budget = 2 * ix.m
			}
			ix.linkBack(nb, bl.id, int(bl.layer), budget)
		}
	})

	for k := range plans {
		lvl := int32(len(plans[k]) - 1)
		if ix.entry < 0 || lvl > ix.maxLvl {
			ix.entry, ix.maxLvl = lo+int32(k), lvl
		}
	}
}
