package cluster

import "math"

// BestCut returns the labels, cluster count and mean silhouette coefficient
// of the best-scoring cut of the dendrogram with between minK and maxK
// clusters (Rousseeuw 1987, the quality measure the paper uses to pick the
// number of column clusters, §3.3 and §6.2.1); a tie goes to the fewest
// clusters. Items in singleton clusters contribute 0, matching
// scikit-learn, so a score is in [-1, 1] and higher is better. If no cut in
// range has a valid score the cut at minK is returned with a NaN score.
//
// The cuts are scored in one sweep over the merges, fine to coarse, keeping
// each item's mean distance to every live cluster and to the nearest other
// one. A merge re-sums only the merged cluster, over its members in
// ascending order, and re-scans the nearest other cluster only for its own
// items and for those whose nearest was one of the merged halves; every
// other item takes the min with the merged cluster's mean. Each score is
// then re-totalled in item order. So every cut is scored with the same
// additions in the same order as scoring it from scratch — bit for bit —
// at n·|merged| additions a merge instead of n² a cut, and only the winner
// is cut.
func BestCut(m *Matrix, d *Dendrogram, minK, maxK int) (labels []int, k int, score float64) {
	minK = max(minK, 2)
	maxK = min(maxK, d.N)
	if minK > maxK {
		labels, k = d.Cut(minK)
		return labels, k, math.NaN()
	}
	// The cut at kk clusters is the state after min(N-kk, len(Merges))
	// merges, with at least minK >= 2 clusters left.
	n, merges := d.N, len(d.Merges)
	first, last := min(n-maxK, merges), min(n-minK, merges)
	s := newSweep(m, d, first)
	best, bestT := math.Inf(-1), -1
	for t := first; ; t++ {
		if sc := s.score(); !math.IsNaN(sc) && (sc > best || bestT >= 0 && sc == best) {
			best, bestT = sc, t
		}
		if t == last {
			break
		}
		s.merge(d.Merges[t])
	}
	if bestT < 0 {
		labels, k = d.Cut(minK)
		return labels, k, math.NaN()
	}
	labels, k = d.Cut(n - bestT)
	return labels, k, best
}

// sweep is the silhouette state of one cut. Clusters live in slots: leaf i
// starts in slot i and a merged cluster keeps the lower of its halves'
// slots.
type sweep struct {
	m      *Matrix
	n      int
	slotOf []int // dendrogram id -> slot
	slot   []int // item -> slot of its cluster
	size   []int // slot -> member count (0 once merged away)
	live   []int // occupied slots, ascending
	arg    []int // item -> slot of its nearest other cluster, -1 if none
	buf    []int // the merged cluster's members, ascending

	mean []float64 // mean[i*n+c]: item i's mean distance to the cluster in slot c, if not its own
	a    []float64 // item -> mean distance to the other members of its cluster
	b    []float64 // item -> mean distance to its nearest other cluster (kept outside singletons)
}

// newSweep applies the first t merges and scores that cut from scratch.
func newSweep(m *Matrix, d *Dendrogram, t int) *sweep {
	n := d.N
	s := &sweep{m: m, n: n,
		slotOf: make([]int, n+len(d.Merges)),
		slot:   make([]int, n),
		size:   make([]int, n),
		live:   make([]int, n),
		arg:    make([]int, n),
		buf:    make([]int, 0, n),
		mean:   make([]float64, n*n),
		a:      make([]float64, n),
		b:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		s.slotOf[i], s.slot[i], s.size[i], s.live[i] = i, i, 1, i
	}
	for _, mg := range d.Merges[:t] {
		s.join(mg)
	}
	// Summing over the items in ascending order adds each cluster's members
	// in ascending order.
	for i := 0; i < n; i++ {
		row, dist := s.mean[i*n:(i+1)*n], m.d[i*n:(i+1)*n]
		for j, c := range s.slot {
			if j != i {
				row[c] += float64(dist[j])
			}
		}
		own := s.slot[i]
		for _, c := range s.live {
			if c != own {
				row[c] /= float64(s.size[c])
			}
		}
		if s.size[own] > 1 {
			s.a[i] = row[own] / float64(s.size[own]-1)
			s.nearest(i)
		}
	}
	return s
}

// join applies one merge to the slots and collects the merged cluster's
// members into buf; it returns the merged cluster's slot and the slot it
// absorbed.
func (s *sweep) join(mg Merge) (into, gone int) {
	into, gone = s.slotOf[mg.A], s.slotOf[mg.B]
	if gone < into {
		into, gone = gone, into
	}
	s.slotOf[mg.New] = into
	s.buf = s.buf[:0]
	for i, c := range s.slot {
		if c == gone {
			s.slot[i] = into
			c = into
		}
		if c == into {
			s.buf = append(s.buf, i)
		}
	}
	s.size[into] += s.size[gone]
	s.size[gone] = 0
	for x, c := range s.live {
		if c == gone {
			s.live = append(s.live[:x], s.live[x+1:]...)
			break
		}
	}
	return into, gone
}

// merge applies one merge and brings every item's a, b and mean to the
// merged cluster up to date.
func (s *sweep) merge(mg Merge) {
	into, gone := s.join(mg)
	n, size := s.n, float64(s.size[into])
	for i := 0; i < n; i++ {
		var sum float64
		dist := s.m.d[i*n : (i+1)*n]
		for _, j := range s.buf {
			if j != i {
				sum += float64(dist[j])
			}
		}
		switch v := sum / size; {
		case s.slot[i] == into:
			s.a[i] = sum / (size - 1)
			s.nearest(i)
		case s.size[s.slot[i]] == 1:
			s.mean[i*n+into] = v // a singleton's b is found when it joins a cluster
		case s.arg[i] == into || s.arg[i] == gone:
			s.mean[i*n+into] = v
			s.nearest(i)
		default:
			s.mean[i*n+into] = v
			if v < s.b[i] {
				s.b[i], s.arg[i] = v, into
			}
		}
	}
}

// nearest re-scans item i's nearest other cluster. A NaN mean is never
// nearest; with none left b is +Inf.
func (s *sweep) nearest(i int) {
	b, arg := math.Inf(1), -1
	own, row := s.slot[i], s.mean[i*s.n:(i+1)*s.n]
	for _, c := range s.live {
		if c != own && row[c] < b {
			b, arg = row[c], c
		}
	}
	s.b[i], s.arg[i] = b, arg
}

// score returns the current cut's mean silhouette. Adding a singleton's 0
// leaves the total's bits alone: it starts at +0 and a sum is -0 only when
// both terms are.
func (s *sweep) score() float64 {
	var total float64
	for i := 0; i < s.n; i++ {
		c := 0.0
		if s.size[s.slot[i]] > 1 {
			a, b := s.a[i], s.b[i]
			if mx := math.Max(a, b); mx > 0 {
				c = (b - a) / mx
			}
		}
		total += c
	}
	return total / float64(s.n)
}
