package cluster

import "math"

// bestCut returns the labels, cluster count and mean silhouette coefficient
// of the best-scoring cut of the dendrogram with between minK and maxK
// clusters (Rousseeuw 1987, the quality measure the paper uses to pick the
// number of column clusters, §3.3 and §6.2.1); a tie goes to the fewest
// clusters. Items in singleton clusters contribute 0, matching
// scikit-learn, so a score is in [-1, 1] and higher is better. If no cut in
// range has a valid score the cut at minK is returned with a NaN score.
// cells are the n×n item distances the dendrogram was clustered from,
// unconsumed, with a +0 diagonal; the labels are s's memory.
//
// The cuts are scored in one sweep over the merges, fine to coarse, keeping
// each item's mean distance to every live cluster and to the nearest other
// one. A merge re-sums only the merged cluster, over its members in
// ascending order (four items a step), and re-scans the nearest other
// cluster only for its own items and for those whose nearest was one of
// the merged halves; every other item takes the min with the merged
// cluster's mean. An item's coefficient is recomputed only when its a or b
// changes, and each score is then re-totalled from the coefficients in item
// order. So every cut is scored with the same additions in the same order
// as scoring it from scratch — bit for bit — at n·|merged| additions a
// merge instead of n² a cut, and only the winner is cut.
func (s *scratch) bestCut(cells []float32, d dendrogram, minK, maxK int) (labels []int, k int, score float64) {
	minK = max(minK, 2)
	maxK = min(maxK, d.N)
	if minK > maxK {
		labels, k = s.cut(d, minK)
		return labels, k, math.NaN()
	}
	// The cut at kk clusters is the state after min(N-kk, len(Merges))
	// merges, with at least minK >= 2 clusters left.
	n, merges := d.N, len(d.Merges)
	first, last := min(n-maxK, merges), min(n-minK, merges)
	var sw sweep
	sw.init(s, cells, d, first)
	best, bestT := math.Inf(-1), -1
	for t := first; ; t++ {
		if sc := sw.score(); !math.IsNaN(sc) && (sc > best || bestT >= 0 && sc == best) {
			best, bestT = sc, t
		}
		if t == last {
			break
		}
		sw.merge(d.Merges[t])
	}
	if bestT < 0 {
		labels, k = s.cut(d, minK)
		return labels, k, math.NaN()
	}
	labels, k = s.cut(d, n-bestT)
	return labels, k, best
}

// sweep is the silhouette state of one cut. Clusters live in slots: leaf i
// starts in slot i and a merged cluster keeps the lower of its halves'
// slots.
type sweep struct {
	cells  []float32 // the n×n item distances
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
	sum  []float64 // item -> its distance sum over the merged cluster (sumMerged)
	sil  []float64 // item -> its silhouette coefficient, 0 in a singleton (rescore)
}

// init takes the sweep's state from s, applies the first t merges and
// scores that cut from scratch.
func (sw *sweep) init(s *scratch, cells []float32, d dendrogram, t int) {
	n := d.N
	*sw = sweep{cells: cells, n: n,
		slotOf: s.ints.take(n + len(d.Merges)),
		slot:   s.ints.take(n),
		size:   s.ints.take(n),
		live:   s.ints.take(n),
		arg:    s.ints.take(n),
		buf:    s.ints.take(n)[:0],
		mean:   s.f64.take(n * n),
		a:      s.f64.take(n),
		b:      s.f64.take(n),
		sum:    s.f64.take(n),
		sil:    s.f64.take(n),
	}
	clear(sw.mean)
	clear(sw.sil)
	for i := 0; i < n; i++ {
		sw.slotOf[i], sw.slot[i], sw.size[i], sw.live[i] = i, i, 1, i
	}
	for _, mg := range d.Merges[:t] {
		sw.join(mg)
	}
	// Summing over the items in ascending order adds each cluster's members
	// in ascending order.
	for i := 0; i < n; i++ {
		row, dist := sw.mean[i*n:(i+1)*n], cells[i*n:(i+1)*n]
		for j, c := range sw.slot {
			if j != i {
				row[c] += float64(dist[j])
			}
		}
		own := sw.slot[i]
		for _, c := range sw.live {
			if sz := sw.size[c]; c != own && sz != 1 { // x/1 is x
				row[c] /= float64(sz)
			}
		}
		if sw.size[own] > 1 {
			sw.a[i] = row[own] / float64(sw.size[own]-1)
			sw.nearest(i)
		}
	}
}

// join applies one merge to the slots and collects the merged cluster's
// members into buf; it returns the merged cluster's slot and the slot it
// absorbed.
func (s *sweep) join(mg merge) (into, gone int) {
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
func (s *sweep) merge(mg merge) {
	into, gone := s.join(mg)
	n, size := s.n, float64(s.size[into])
	s.sumMerged()
	for i, sum := range s.sum {
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
				s.rescore(i)
			}
		}
	}
}

// sumMerged sets every item's sum to its cells over the merged cluster's
// members in ascending order, four items a step so that the additions of a
// step do not wait on each other. An item's own cell, the +0 diagonal, is
// added too: that leaves the sum's bits alone, since the sum starts at +0
// and is never -0.
func (s *sweep) sumMerged() {
	n, cells := s.n, s.cells
	i := 0
	for ; i+4 <= n; i += 4 {
		d0, d1, d2, d3 := cells[i*n:(i+1)*n], cells[(i+1)*n:(i+2)*n], cells[(i+2)*n:(i+3)*n], cells[(i+3)*n:(i+4)*n]
		var s0, s1, s2, s3 float64
		for _, j := range s.buf {
			s0 += float64(d0[j])
			s1 += float64(d1[j])
			s2 += float64(d2[j])
			s3 += float64(d3[j])
		}
		s.sum[i], s.sum[i+1], s.sum[i+2], s.sum[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		var sum float64
		for _, j := range s.buf {
			sum += float64(cells[i*n+j])
		}
		s.sum[i] = sum
	}
}

// nearest re-scans item i's nearest other cluster, then rescores i. A NaN
// mean is never nearest; with none left b is +Inf.
func (s *sweep) nearest(i int) {
	b, arg := math.Inf(1), -1
	own, row := s.slot[i], s.mean[i*s.n:(i+1)*s.n]
	for _, c := range s.live {
		if c != own && row[c] < b {
			b, arg = row[c], c
		}
	}
	s.b[i], s.arg[i] = b, arg
	s.rescore(i)
}

// rescore sets the silhouette coefficient of item i, which is in a cluster
// of two or more, from its a and b. An item's a, b and cluster change only
// where the sweep calls it (a singleton keeps 0), so sil always holds every
// item's coefficient at the current cut.
func (s *sweep) rescore(i int) {
	c, a, b := 0.0, s.a[i], s.b[i]
	if mx := math.Max(a, b); mx > 0 {
		c = (b - a) / mx
	}
	s.sil[i] = c
}

// score returns the current cut's mean silhouette, its items' coefficients
// totalled in item order. Adding a singleton's 0 leaves the total's bits
// alone: it starts at +0 and a sum is -0 only when both terms are.
func (s *sweep) score() float64 {
	var total float64
	for _, c := range s.sil {
		total += c
	}
	return total / float64(s.n)
}
