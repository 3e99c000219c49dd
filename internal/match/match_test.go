package match

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestMaxWeightSimple(t *testing.T) {
	w := [][]float64{
		{0.9, 0.1},
		{0.2, 0.8},
	}
	as, total := MaxWeight(w)
	if len(as) != 2 {
		t.Fatalf("assignments = %v", as)
	}
	if math.Abs(total-1.7) > 1e-9 {
		t.Errorf("total = %v, want 1.7", total)
	}
}

func TestMaxWeightPrefersGlobalOptimum(t *testing.T) {
	// Greedy would take (0,0)=0.9 then (1,1)=0.1 for 1.0; optimal is
	// (0,1)=0.8 + (1,0)=0.7 = 1.5.
	w := [][]float64{
		{0.9, 0.8},
		{0.7, 0.1},
	}
	_, total := MaxWeight(w)
	if math.Abs(total-1.5) > 1e-9 {
		t.Errorf("total = %v, want 1.5 (global optimum)", total)
	}
}

func TestMaxWeightRectangular(t *testing.T) {
	// More right nodes than left.
	w := [][]float64{
		{0.1, 0.9, 0.2, 0.3},
		{0.8, 0.2, 0.1, 0.4},
	}
	as, total := MaxWeight(w)
	if len(as) != 2 {
		t.Fatalf("assignments = %v", as)
	}
	if math.Abs(total-1.7) > 1e-9 {
		t.Errorf("total = %v, want 1.7", total)
	}
	// More left nodes than right.
	wt := [][]float64{
		{0.1},
		{0.9},
		{0.5},
	}
	as, total = MaxWeight(wt)
	if len(as) != 1 || as[0].Left != 1 {
		t.Errorf("assignments = %v, want single match for left=1", as)
	}
	if math.Abs(total-0.9) > 1e-9 {
		t.Errorf("total = %v, want 0.9", total)
	}
}

func TestMaxWeightSkipsNonPositive(t *testing.T) {
	w := [][]float64{
		{0, 0},
		{0, 0.5},
	}
	as, total := MaxWeight(w)
	if len(as) != 1 || as[0].Left != 1 || as[0].Right != 1 {
		t.Errorf("assignments = %v, want only the 0.5 pair", as)
	}
	if total != 0.5 {
		t.Errorf("total = %v", total)
	}
}

func TestMaxWeightEmpty(t *testing.T) {
	if as, total := MaxWeight(nil); as != nil || total != 0 {
		t.Error("nil input should yield empty matching")
	}
	if as, total := MaxWeight([][]float64{{}, {}}); as != nil || total != 0 {
		t.Error("empty rows should yield empty matching")
	}
}

// Exhaustive cross-check against brute force on random small instances.
func TestMaxWeightMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4) // 2..5
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = rng.Float64()
			}
		}
		_, got := MaxWeight(w)
		want := bruteForceMax(w)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: hungarian %v != brute force %v (w=%v)", trial, got, want, w)
		}
	}
}

// bruteForceMax tries every permutation.
func bruteForceMax(w [][]float64) float64 {
	n := len(w)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := 0.0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			var s float64
			for r, c := range perm {
				if w[r][c] > 0 {
					s += w[r][c]
				}
			}
			if s > best {
				best = s
			}
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best
}

// referenceMaxWeight is MaxWeight as it stood before the flat core: a padded
// [][]float64 cost copy and a Hungarian step allocating per row. It is kept
// as the oracle the flat core must reproduce exactly.
func referenceMaxWeight(w [][]float64) ([]Assignment, float64) {
	nl := len(w)
	nr := 0
	for _, row := range w {
		nr = max(nr, len(row))
	}
	if nl == 0 || nr == 0 {
		return nil, 0
	}
	n := max(nl, nr)
	maxW := 0.0
	for i := range w {
		for _, v := range w[i] {
			maxW = max(maxW, v)
		}
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			v := 0.0
			if i < nl && j < len(w[i]) {
				v = w[i][j]
			}
			cost[i][j] = maxW - v
		}
	}
	const inf = math.MaxFloat64
	u, v := make([]float64, n+1), make([]float64, n+1)
	p, way := make([]int, n+1), make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				if cur := cost[i0-1][j-1] - u[i0] - v[j]; cur < minv[j] {
					minv[j], way[j] = cur, j0
				}
				if minv[j] < delta {
					delta, j1 = minv[j], j
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
			if j0 = j1; p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0], j0 = p[j1], j1
		}
	}
	rowMate := make([]int, n)
	for j := 1; j <= n; j++ {
		rowMate[p[j]-1] = j - 1
	}
	var out []Assignment
	var total float64
	for i := 0; i < nl; i++ {
		if j := rowMate[i]; j < len(w[i]) && w[i][j] > 0 {
			out = append(out, Assignment{Left: i, Right: j, Weight: w[i][j]})
			total += w[i][j]
		}
	}
	return out, total
}

// TestFlatCoreMatchesReference is the property the refactor rests on: on
// random rectangular (and ragged) matrices — 1 x n and n x 1, all-zero rows,
// exact ties, negative cells — MaxWeight over the flat core returns the
// reference's assignments and its total bit for bit, and one Scratch reused
// across every matrix answers like a fresh one.
func TestFlatCoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var reused Scratch
	for trial := 0; trial < 2000; trial++ {
		nl, nr := 1+rng.Intn(7), 1+rng.Intn(7)
		switch trial % 10 {
		case 0:
			nl = 1
		case 1:
			nr = 1
		}
		levels := 0 // > 0 quantises weights so exact ties are common
		if trial%3 == 0 {
			levels = 1 + rng.Intn(4)
		}
		w := make([][]float64, nl)
		for i := range w {
			n := nr
			if trial%7 == 0 {
				n = rng.Intn(nr + 1) // ragged
			}
			w[i] = make([]float64, n)
			if rng.Intn(5) == 0 {
				continue // all-zero row
			}
			for j := range w[i] {
				x := rng.Float64()
				if levels > 0 {
					x = float64(rng.Intn(levels+1)) / float64(levels)
				}
				if trial%11 == 0 {
					x -= 0.3
				}
				w[i][j] = x
			}
		}
		wantAs, wantTotal := referenceMaxWeight(w)
		gotAs, gotTotal := MaxWeight(w)
		if gotTotal != wantTotal || !slices.Equal(gotAs, wantAs) {
			t.Fatalf("trial %d: MaxWeight = %v, %v; reference %v, %v (w=%v)", trial, gotAs, gotTotal, wantAs, wantTotal, w)
		}

		width := 0
		for _, row := range w {
			width = max(width, len(row))
		}
		flat := make([]float64, nl*width)
		for i, row := range w {
			copy(flat[i*width:], row)
		}
		if got := reused.Solve(flat, nl, width); got != wantTotal {
			t.Fatalf("trial %d: reused Scratch total %v, reference %v (w=%v)", trial, got, wantTotal, w)
		}
		mates := make([]int, nl)
		for i := range mates {
			mates[i] = -1
		}
		for _, a := range wantAs {
			mates[a.Left] = a.Right
		}
		if !slices.Equal(reused.Mates(), mates) {
			t.Fatalf("trial %d: reused Scratch mates %v, reference %v (w=%v)", trial, reused.Mates(), mates, w)
		}
	}
}

// TestSolveAllocatesOnlyToGrow pins the reason the core exists: a warmed
// Scratch solves without allocating.
func TestSolveAllocatesOnlyToGrow(t *testing.T) {
	w := []float64{0.9, 0.8, 0.1, 0.7, 0.1, 0.6, 0.2, 0.9, 0.3, 0.4, 0.5, 0.6}
	var s Scratch
	s.Solve(w, 3, 4)
	if n := testing.AllocsPerRun(100, func() { s.Solve(w, 3, 4); s.Solve(w, 4, 3) }); n != 0 {
		t.Errorf("warmed Scratch.Solve allocates %v times per run, want 0", n)
	}
}
