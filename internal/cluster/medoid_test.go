package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dust/internal/vector"
)

// scanMedoid is the medoid as a scan of the matrix's cells: every member's
// distance sum in member order, the least one kept, the first on ties. It
// is how a cosine matrix picked its medoid before the unit-row sum pass,
// kept as that pass's reference; m's cells must not have been clustered in.
func scanMedoid(m *Matrix, members []int) int {
	best, bestSum := members[0], math.Inf(1)
	for _, i := range members {
		var sum float64
		for _, j := range members {
			sum += float64(m.d[i*m.n+j])
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return best
}

// ulpNeighbour returns v with coordinate k moved one ulp up or down.
func ulpNeighbour(v vector.Vec, k int, up bool) vector.Vec {
	w, to := vector.Clone(v), math.Inf(-1)
	if up {
		to = math.Inf(1)
	}
	w[k] = math.Nextafter(w[k], to)
	return w
}

// medoidCase is a set of rows and the member lists to take medoids of.
type medoidCase struct {
	name    string
	items   []vector.Vec
	members [][]int
}

// pooledVecs is shaped like a tall pool: rows around a few dozen centres at
// scattered scales, about 7.6 % of them exact copies of earlier rows, some
// one-ulp neighbours of earlier rows and a few zero rows.
func pooledVecs(rng *rand.Rand, n, dim int) []vector.Vec {
	centres := make([]vector.Vec, max(n/40, 1))
	for c := range centres {
		centres[c] = make(vector.Vec, dim)
		for k := range centres[c] {
			centres[c][k] = rng.NormFloat64()
		}
	}
	items := make([]vector.Vec, n)
	for i := range items {
		switch r := rng.Float64(); {
		case i > 0 && r < 0.076:
			items[i] = items[rng.Intn(i)]
		case i > 0 && r < 0.11:
			items[i] = ulpNeighbour(items[rng.Intn(i)], rng.Intn(dim), rng.Intn(2) == 0)
		case r < 0.115:
			items[i] = make(vector.Vec, dim)
		default:
			v := vector.Clone(centres[rng.Intn(len(centres))])
			spread := 0.05 + rng.Float64()
			for k := range v {
				v[k] += spread * rng.NormFloat64()
			}
			items[i] = vector.Scale(v, math.Pow(10, float64(rng.Intn(5)-2)))
		}
	}
	return items
}

// medoidCases are the seeded inputs of the medoid tests: the clusters of
// pools up to 1 500 rows at dim 128 cut coarse and fine (so clusters of 1
// and 2 members too), and hand-made near-ties — one-ulp neighbours of a
// centre among rows scattered around it, listed in shuffled order, with
// copies and zero rows — where the least estimate is not the scan's pick.
func medoidCases(seed int64) []medoidCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []medoidCase
	for _, n := range []int{3, 60, 400, 1500} {
		items := pooledVecs(rng, n, 128)
		m := NewMatrix(items, vector.CosineDistance)
		dend := agglomerative(m, Options{})
		m.Release()
		for _, k := range []int{1, max(n/50, 2), n / 3} {
			labels, got := dend.cut(k)
			cases = append(cases, medoidCase{fmt.Sprintf("pool %d cut %d", n, k), items, members(labels, got)})
		}
	}
	for g := 0; g < 8; g++ {
		dim := []int{3, 16, 128}[g%3]
		centre := make(vector.Vec, dim)
		for k := range centre {
			centre[k] = rng.NormFloat64()
		}
		var items []vector.Vec
		for i := 0; i < 12; i++ {
			items = append(items, ulpNeighbour(centre, rng.Intn(dim), i%2 == 0))
		}
		for i := 0; i < 30; i++ {
			v := vector.Clone(centre)
			for k := range v {
				v[k] += 0.3 * rng.NormFloat64()
			}
			items = append(items, v)
		}
		items = append(items, vector.Clone(items[3]), vector.Clone(items[7]), make(vector.Vec, dim), make(vector.Vec, dim))
		all := rng.Perm(len(items))
		zeros := []int{len(items) - 2, len(items) - 1}
		cases = append(cases, medoidCase{fmt.Sprintf("near ties %d", g), items, [][]int{
			all, all[:len(all)/2], all[:1], all[:2], zeros, append([]int{zeros[0], 0}, zeros[1]),
		}})
	}
	return cases
}

// medoidMismatches lists the member lists whose medoid differs from the
// cell scan's, asked of a cosine matrix as built and of one whose cells
// clustering has consumed.
func medoidMismatches(cases []medoidCase, workers int) (bad []string) {
	for _, c := range cases {
		fresh := NewMatrixWorkers(c.items, vector.CosineDistance, workers)
		spent := NewMatrixWorkers(c.items, vector.CosineDistance, workers)
		spent.Partition(1, Options{})
		for _, members := range c.members {
			want := scanMedoid(fresh, members)
			for state, m := range map[string]*Matrix{"as built": fresh, "clustered": spent} {
				if got := m.MedoidWorkers(members, workers); got != want {
					bad = append(bad, fmt.Sprintf("%s, %d members, %s: medoid %d, cell scan %d", c.name, len(members), state, got, want))
				}
			}
		}
		fresh.Release()
		spent.Release()
	}
	return bad
}

// TestMedoidMatchesCellScan holds a cosine matrix's medoid, read from its
// unit rows, to the cell scan's member, under both kernel bodies and at
// workers 1 and 8.
func TestMedoidMatchesCellScan(t *testing.T) {
	cases := medoidCases(1)
	check := func(t *testing.T) {
		for _, workers := range []int{1, 8} {
			for _, msg := range medoidMismatches(cases, workers) {
				t.Errorf("workers %d: %s", workers, msg)
			}
		}
	}
	t.Run(vector.CosineKernel(), check)
	if vector.CosineKernel() != "generic" {
		defer vector.ForceGenericKernel()()
		t.Run(vector.CosineKernel(), check)
	}
}

// TestMedoidMarginIsNeeded: picking by the estimate alone (no margin) moves
// medoids on these cases, so TestMedoidMatchesCellScan can tell the margin
// is there.
func TestMedoidMarginIsNeeded(t *testing.T) {
	defer func(margin float64) { medoidMargin = margin }(medoidMargin)
	medoidMargin = 0
	bad := medoidMismatches(medoidCases(1), 1)
	if len(bad) == 0 {
		t.Fatal("the estimate alone picks the cell scan's medoid on every case: the cases have no teeth")
	}
	t.Logf("%d medoids move without the margin, e.g. %s", len(bad), bad[0])
}

// FuzzMedoid holds the medoid of small sets of rows to the cell scan, asked
// of a matrix Partition has consumed. Each row is a zero row, a copy of an
// earlier row, a one-ulp neighbour of one, or fresh coordinates, as the
// input bytes say; the members are every row in an order the input picks,
// and each cluster Partition returned.
func FuzzMedoid(f *testing.F) {
	f.Add([]byte{3, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 4, 0xff, 1, 0, 2, 0, 3, 1, 0, 4, 4, 4, 2, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{7, 9, 40, 1, 2, 3, 4, 5, 6, 7, 8, 81, 0, 0, 82, 1, 1, 83, 2, 2, 0, 0, 0, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim := 1 + int(data[0]%8)
		data = data[1:]
		var items []vector.Vec
		for len(data) > 0 && len(items) < 24 {
			op, arg := data[0], 0
			if len(data) > 1 {
				arg = int(data[1])
			}
			switch {
			case op < 16:
				items = append(items, make(vector.Vec, dim))
				data = data[1:]
			case op < 48 && len(items) > 0:
				items = append(items, items[arg%len(items)])
				data = data[min(2, len(data)):]
			case op < 96 && len(items) > 0:
				items = append(items, ulpNeighbour(items[arg%len(items)], int(op)%dim, op%2 == 0))
				data = data[min(2, len(data)):]
			default:
				v := make(vector.Vec, dim)
				for k := range v {
					if k+1 < len(data) {
						v[k] = float64(int8(data[k+1])) / 16
					}
				}
				items = append(items, v)
				data = data[min(dim+1, len(data)):]
			}
		}
		if len(items) == 0 {
			return
		}
		members := rand.New(rand.NewSource(int64(len(items)) * int64(dim))).Perm(len(items))
		fresh := NewMatrix(items, vector.CosineDistance)
		want := scanMedoid(fresh, members)
		spent := NewMatrix(items, vector.CosineDistance)
		clusters := spent.Partition(max(1, len(items)/4), Options{})
		if got := spent.Medoid(members); got != want {
			t.Fatalf("medoid of %d rows at dim %d = %d, cell scan %d", len(items), dim, got, want)
		}
		for _, c := range clusters {
			if got, want := spent.Medoid(c), scanMedoid(fresh, c); got != want {
				t.Fatalf("medoid of cluster %v of %d rows at dim %d = %d, cell scan %d", c, len(items), dim, got, want)
			}
		}
		fresh.Release()
		spent.Release()
	})
}

// TestConsumedMatrix pins the consuming contract: Partition clusters a
// cosine matrix in its own cells, after which reading them or partitioning
// again panics while its medoid reads the unit rows and answers as before;
// a matrix of any other distance, whose medoid reads the cells, is
// clustered in a scratch copy and stays whole, answering a second
// Partition alike.
func TestConsumedMatrix(t *testing.T) {
	items := duplicatedVecs(40, 8)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a consumed matrix did not panic", what)
			}
		}()
		f()
	}
	set := []int{3, 1, 4, 15, 9, 26, 5, 35}
	for _, dist := range []vector.DistanceFunc{vector.Euclidean, vector.CosineDistance} {
		m := NewMatrix(items, dist)
		want := scanMedoid(m, set)
		if m.medoidReadsCells() == vector.IsCosineDistance(dist) {
			t.Errorf("medoidReadsCells = %v, cosine matrix %v", m.medoidReadsCells(), vector.IsCosineDistance(dist))
		}
		cut := members(agglomerative(clone(m), Options{}).cut(6))
		if got := m.Partition(6, Options{}); !reflect.DeepEqual(got, cut) {
			t.Fatalf("Partition = %v, cut of a clone's dendrogram %v", got, cut)
		}
		if m.medoidReadsCells() {
			if got := m.Partition(6, Options{}); !reflect.DeepEqual(got, cut) {
				t.Errorf("second Partition = %v, first %v", got, cut)
			}
			if m.At(0, 1) != clone(m).At(0, 1) {
				t.Error("At moved under Partition")
			}
		} else {
			mustPanic("At", func() { m.At(0, 1) })
			mustPanic("Partition", func() { m.Partition(6, Options{}) })
		}
		if got := m.Medoid(set); got != want {
			t.Errorf("medoid after Partition = %d, cell scan %d", got, want)
		}
		m.Release()
	}
}
