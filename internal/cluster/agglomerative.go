package cluster

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"

	"dust/internal/vector"
)

// Merge records one agglomeration step: clusters A and B (ids) merged at
// the given distance into a new cluster with id New.
type Merge struct {
	A, B     int
	Distance float64
	New      int
}

// Dendrogram is the full merge history of an agglomerative run. Leaf items
// have ids 0..N-1; merged clusters get ids N, N+1, ...
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Options configures an agglomerative run.
type Options struct {
	// CannotLink, if non-nil, reports that leaf items i and j must never
	// end up in the same cluster (used to forbid aligning two columns of
	// the same table, paper §3.3). The constraint propagates to merged
	// clusters automatically.
	CannotLink func(i, j int) bool
}

// workBufs keeps the n² buffers of finished runs — a released cosine Matrix
// and Agglomerative's working copy of it — for the next ones, so a steady
// run of clusterings allocates neither. It is a plain free list rather than
// a sync.Pool because the collector empties a pool every other cycle, and a
// search allocates enough elsewhere to run several cycles between two
// clusterings. Runs are CPU-bound, so one matrix and one working copy per
// processor is all that concurrent runs can use; a run that finds the list
// empty allocates, and a buffer that finds it full is left to the collector.
var workBufs = make(chan []float32, 2*runtime.GOMAXPROCS(0))

// takeWorkBuf returns n² cells of scratch with arbitrary contents.
func takeWorkBuf(n int) []float32 {
	select {
	case buf := <-workBufs:
		if cap(buf) >= n*n {
			return buf[:n*n]
		}
	default:
	}
	return make([]float32, n*n)
}

func returnWorkBuf(buf []float32) {
	select {
	case workBufs <- buf:
	default:
	}
}

// Agglomerative clusters the items of m bottom-up with average linkage
// (UPGMA, the paper's configuration, §6.2.1) using the
// nearest-neighbour-chain algorithm with Lance-Williams distance updates
// (O(n^2): average linkage is reducible). Pairs forbidden by CannotLink get
// +Inf distance, which Lance-Williams propagates, so the returned dendrogram
// may stop early if only forbidden merges remain.
//
// Cluster distances are kept at the matrix's own float32 precision: each
// update is computed in float64 from two stored cells and rounded once,
// which keeps it between them, so the linkage stays reducible. The
// nearest-neighbour scan and the row update are internal/vector's cluster
// kernels (vector.NearestLive, vector.AverageLinkage).
func Agglomerative(m *Matrix, opts Options) *Dendrogram {
	n := m.Len()
	dend := &Dendrogram{N: n}
	if n <= 1 {
		return dend
	}

	// Working distance matrix between live clusters, w slots a row. Slot i
	// initially holds leaf i; a merged cluster keeps the slot of A. Every
	// cell is overwritten here, so nothing of the run that last held the
	// buffer survives. The diagonal is +Inf: no slot is its own neighbour.
	w := n
	d := takeWorkBuf(n)
	defer returnWorkBuf(d)
	copy(d, m.d)
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
	live := make([]int, n)
	mask := make([]float32, n)
	size := make([]int, n)
	id := make([]int, n) // dendrogram id currently held by each slot
	for i := 0; i < n; i++ {
		live[i] = i
		size[i] = 1
		id[i] = i
	}
	nextID := n

	chain := make([]int, 0, n)
	frozen := make([]bool, n) // slots with no finite-distance neighbour left

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
			dend.Merges = append(dend.Merges, Merge{A: id[a], B: id[b], Distance: float64(dist), New: nextID})
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
	// in ascending merge distance. Cut applies merges sequentially, so
	// restore the ascending order here. The stable sort keeps dependencies
	// intact: average linkage being reducible, a merge consuming the output
	// of another always has a distance >= its input's distance, and on ties
	// the producing merge was appended first.
	slices.SortStableFunc(dend.Merges, func(a, b Merge) int {
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

// Cut returns cluster assignments after performing merges until exactly k
// clusters remain (or until the dendrogram runs out of merges, whichever
// comes first). The result maps each leaf to a compact cluster label in
// [0, actual); actual is the achieved number of clusters.
func (d *Dendrogram) Cut(k int) (labels []int, actual int) {
	if k < 1 {
		k = 1
	}
	parent := make([]int, d.N+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	clusters := d.N
	for _, mg := range d.Merges {
		if clusters <= k {
			break
		}
		ra, rb := find(mg.A), find(mg.B)
		parent[ra] = mg.New
		parent[rb] = mg.New
		clusters--
	}
	labels = make([]int, d.N)
	compact := make([]int, len(parent)) // root id -> label+1; 0 = unseen
	for i := 0; i < d.N; i++ {
		r := find(i)
		if compact[r] == 0 {
			actual++
			compact[r] = actual
		}
		labels[i] = compact[r] - 1
	}
	return labels, actual
}

// Members groups leaf indices by label.
func Members(labels []int, numClusters int) [][]int {
	out := make([][]int, numClusters)
	for i, l := range labels {
		out[l] = append(out[l], i)
	}
	return out
}
