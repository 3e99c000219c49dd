package cluster

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"dust/internal/vector"
)

// merge records one agglomeration step: clusters A and B (ids) merged at
// the given distance into a new cluster with id New.
type merge struct {
	A, B     int
	Distance float64
	New      int
}

// dendrogram is the full merge history of an agglomerative run. Leaf items
// have ids 0..N-1; merged clusters get ids N, N+1, ...
type dendrogram struct {
	N      int
	Merges []merge
}

// Options configures an agglomerative run.
type Options struct {
	// CannotLink, if non-nil, reports that leaf items i and j must never
	// end up in the same cluster (used to forbid aligning two columns of
	// the same table, paper §3.3). The constraint propagates to merged
	// clusters automatically.
	CannotLink func(i, j int) bool
}

// agglomerate clusters n items bottom-up with average linkage (UPGMA, the
// paper's configuration, §6.2.1) using the nearest-neighbour-chain
// algorithm with Lance-Williams distance updates (O(n^2): average linkage
// is reducible), in the n×n cells d, which it consumes. Pairs forbidden by
// CannotLink get +Inf distance, which Lance-Williams propagates, so the
// dendrogram may stop early if only forbidden merges remain. The merges are
// s's memory.
//
// Cluster distances are kept at the matrix's own float32 precision: each
// update is computed in float64 from two stored cells and rounded once,
// which keeps it between them, so the linkage stays reducible. The
// nearest-neighbour scan and the row update are internal/vector's cluster
// kernels (vector.NearestLive, vector.AverageLinkage).
func (s *scratch) agglomerate(d []float32, n int, opts Options) dendrogram {
	dend := dendrogram{N: n}
	if n <= 1 {
		return dend
	}
	dend.Merges = s.merges.take(n - 1)[:0]

	// Working distance matrix between live clusters, w slots a row, in d.
	// Slot i initially holds leaf i; a merged cluster keeps the slot of A.
	// The diagonal is +Inf: no slot is its own neighbour.
	w := n
	inf := float32(math.Inf(1))
	for i := 0; i < n; i++ {
		d[i*n+i] = inf
	}
	if opts.CannotLink != nil {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if opts.CannotLink(i, j) {
					d[i*n+j] = inf
					d[j*n+i] = inf
				}
			}
		}
	}

	// live lists the slots still holding a cluster, in ascending order, and
	// mask is +0 at those slots and +Inf at the rest: the kernels' generic
	// bodies walk the list, the AVX2 ones the dense row under the mask.
	// Either way ties break to the lowest slot.
	live := s.ints.take(n)
	mask := s.f32.take(n)
	size := s.ints.take(n)
	id := s.ints.take(n) // dendrogram id currently held by each slot
	for i := 0; i < n; i++ {
		live[i] = i
		size[i] = 1
		id[i] = i
	}
	clear(mask)
	nextID := n

	chain := s.ints.take(n)[:0]
	frozen := s.bools.take(n) // slots with no finite-distance neighbour left
	clear(frozen)

	for len(live) > 1 {
		if len(chain) == 0 {
			start := -1
			for _, i := range live {
				if !frozen[i] {
					start = i
					break
				}
			}
			if start == -1 {
				break // only mutually forbidden clusters remain
			}
			chain = append(chain, start)
		}
		a := chain[len(chain)-1]
		b, dist := vector.NearestLive(d[a*w:(a+1)*w], mask[:w], live)
		if b == -1 {
			// a cannot merge with anything anymore.
			frozen[a] = true
			chain = chain[:len(chain)-1]
			continue
		}
		if len(chain) >= 2 && b == chain[len(chain)-2] {
			// Reciprocal nearest neighbours: merge a and b into slot a.
			chain = chain[:len(chain)-2]
			dend.Merges = append(dend.Merges, merge{A: id[a], B: id[b], Distance: float64(dist), New: nextID})
			// Average-linkage weights of the two merged clusters.
			wa := float64(size[a]) / float64(size[a]+size[b])
			wb := float64(size[b]) / float64(size[a]+size[b])
			rowA := d[a*w : (a+1)*w]
			vector.AverageLinkage(rowA, d[b*w:(b+1)*w], live, a, b, wa, wb)
			at := sort.SearchInts(live, b)
			live = append(live[:at], live[at+1:]...)
			mask[b] = inf
			for _, k := range live {
				if k != a {
					d[k*w+a] = rowA[k]
				}
			}
			size[a] += size[b]
			id[a] = nextID
			nextID++
			if 2*len(live) <= w {
				compact(d, w, live, chain, size, id, frozen)
				w = len(live)
				clear(mask[:w])
			}
			// The merge can unfreeze nothing (distances only grow to Inf),
			// but it may have removed some slot's nearest neighbour; the
			// chain discipline handles that because we re-derive neighbours
			// on each step.
			continue
		}
		chain = append(chain, b)
	}
	// NN-chain discovers reciprocal nearest neighbours in chain order, not
	// in ascending merge distance. cut applies merges sequentially, so
	// restore the ascending order here. The stable sort keeps dependencies
	// intact: average linkage being reducible, a merge consuming the output
	// of another always has a distance >= its input's distance, and on ties
	// the producing merge was appended first.
	slices.SortStableFunc(dend.Merges, func(a, b merge) int {
		return cmp.Compare(a.Distance, b.Distance) // never NaN
	})
	return dend
}

// compact moves the rows and columns of the live slots to the front of the
// working matrix d, keeping their order — w slots a row become len(live) —
// and renumbers every slot that live, chain, size, id and frozen hold. It
// runs once at most half the slots are live, so the scans, the scatter and
// the kernels' dense rows shrink with the live set, and ties still break to
// the lowest original slot. Every cell moves to an index at or below its
// own and later cells read later sources, so the move is in place.
func compact(d []float32, w int, live, chain, size, id []int, frozen []bool) {
	for c, s := range chain {
		chain[c] = sort.SearchInts(live, s)
	}
	nw := len(live)
	for ni, oi := range live {
		src, dst := d[oi*w:(oi+1)*w], d[ni*nw:(ni+1)*nw]
		for nj, oj := range live {
			dst[nj] = src[oj]
		}
		size[ni], id[ni], frozen[ni] = size[oi], id[oi], frozen[oi]
	}
	for i := range live {
		live[i] = i
	}
}

// cut returns cluster assignments after performing merges until exactly k
// clusters remain (or until the dendrogram runs out of merges, whichever
// comes first). The result maps each leaf to a compact cluster label in
// [0, actual), numbered in the order of the clusters' least leaves; actual
// is the achieved number of clusters. The labels are s's memory.
func (s *scratch) cut(d dendrogram, k int) (labels []int, actual int) {
	if k < 1 {
		k = 1
	}
	parent := s.ints.take(d.N + len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	clusters := d.N
	for _, mg := range d.Merges {
		if clusters <= k {
			break
		}
		ra, rb := find(parent, mg.A), find(parent, mg.B)
		parent[ra] = mg.New
		parent[rb] = mg.New
		clusters--
	}
	labels = s.ints.take(d.N)
	compact := s.ints.take(len(parent)) // root id -> label+1; 0 = unseen
	clear(compact)
	for i := 0; i < d.N; i++ {
		r := find(parent, i)
		if compact[r] == 0 {
			actual++
			compact[r] = actual
		}
		labels[i] = compact[r] - 1
	}
	return labels, actual
}

// find returns x's root in the union-find forest parent, halving the path.
func find(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// groups returns the leaves of each of the k labels, ascending, in fresh
// memory: what a caller keeps of a clustering. All the clusters share one
// array, each capped at its own end.
func (s *scratch) groups(labels []int, k int) [][]int {
	out := make([][]int, k)
	all := make([]int, len(labels))
	count := s.ints.take(k)
	clear(count)
	for _, l := range labels {
		count[l]++
	}
	at := 0
	for l, c := range count {
		out[l] = all[at : at : at+c]
		at += c
	}
	for i, l := range labels {
		out[l] = append(out[l], i)
	}
	return out
}
