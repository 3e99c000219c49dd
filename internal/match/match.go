// Package match implements maximum-weight bipartite matching via the
// Hungarian (Kuhn-Munkres) algorithm. The Starmie simulator uses it to
// score table unionability as the maximum-weight matching between query and
// candidate columns (paper §6.2.3), and Starmie (B) column alignment builds
// directly on it.
package match

import (
	"math"
	"slices"
)

// Assignment is one matched pair (Left index, Right index) and its weight.
type Assignment struct {
	Left, Right int
	Weight      float64
}

// MaxWeight computes a maximum-weight matching of the bipartite graph whose
// weights are given by w (w[i][j] = weight of matching left i with right j).
// The matrix may be rectangular. Pairs with non-positive weight are left
// unmatched in the returned assignment list (matching them never helps the
// callers here, which use similarity weights). Returns the assignments and
// the total weight.
func MaxWeight(w [][]float64) ([]Assignment, float64) {
	nl, nr := len(w), 0
	for _, row := range w {
		nr = max(nr, len(row))
	}
	if nr == 0 {
		return nil, 0
	}
	// Ragged rows are padded with weight 0, which is never matched.
	var s Scratch
	flat := make([]float64, nl*nr)
	for i, row := range w {
		copy(flat[i*nr:], row)
	}
	total := s.Solve(flat, nl, nr)
	var out []Assignment
	for i, j := range s.Mates() {
		if j >= 0 {
			out = append(out, Assignment{Left: i, Right: j, Weight: flat[i*nr+j]})
		}
	}
	return out, total
}

// Scratch holds the Hungarian working arrays so a caller scoring many
// small matrices — the exact table scan runs one matching per candidate
// table that survives its bound — allocates them once. The zero value is
// ready; a Scratch must not be shared between goroutines.
type Scratch struct {
	cost, u, v, minv []float64
	p, way, mate     []int
	used             []bool
}

// Solve returns the total weight of a maximum-weight matching of the
// row-major nl x nr weight matrix w, leaving w untouched. Cells with
// non-positive weight are never counted; Mates reports who was matched.
func (s *Scratch) Solve(w []float64, nl, nr int) float64 {
	s.mate = grow(s.mate, nl)
	for i := range s.mate {
		s.mate[i] = -1
	}
	if nl == 0 || nr == 0 {
		return 0
	}
	// A square cost matrix for minimization: cost = maxW - weight, absent
	// cells at weight 0.
	n := max(nl, nr)
	maxW := 0.0
	for _, x := range w[:nl*nr] {
		maxW = max(maxW, x)
	}
	s.cost = grow(s.cost, n*n)
	for i := range s.cost {
		s.cost[i] = maxW
	}
	for i := 0; i < nl; i++ {
		for j, x := range w[i*nr : (i+1)*nr] {
			s.cost[i*n+j] = maxW - x
		}
	}
	s.hungarian(n)

	for j := 1; j <= n; j++ {
		if i := s.p[j] - 1; i >= 0 && i < nl && j <= nr && w[i*nr+j-1] > 0 {
			s.mate[i] = j - 1
		}
	}
	// Summed in row order, so the total is a function of the matching alone.
	var total float64
	for i, j := range s.mate {
		if j >= 0 {
			total += w[i*nr+j]
		}
	}
	return total
}

// Mates returns the matching of the last Solve: Mates()[i] is the right
// node matched to left node i, or -1 when i is unmatched (or its only
// available weight was non-positive). The slice is valid until the next
// Solve.
func (s *Scratch) Mates() []int { return s.mate }

// hungarian solves the square n x n assignment problem (minimization) over
// s.cost, leaving s.p[j] = the 1-based row matched to column j. Standard
// O(n^3) potentials implementation.
func (s *Scratch) hungarian(n int) {
	const inf = math.MaxFloat64
	s.u, s.v, s.minv = grow(s.u, n+1), grow(s.v, n+1), grow(s.minv, n+1)
	s.p, s.way, s.used = grow(s.p, n+1), grow(s.way, n+1), grow(s.used, n+1)
	u, v, minv, p, way, used, cost := s.u, s.v, s.minv, s.p, s.way, s.used, s.cost
	for j := 0; j <= n; j++ {
		u[j], v[j], p[j], way[j] = 0, 0, 0, 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j], used[j] = inf, false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			row := cost[(i0-1)*n : i0*n]
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
}

// grow returns s resized to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
