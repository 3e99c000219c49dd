package diversify_test

import (
	"sort"
	"testing"
	"testing/quick"

	"dust/internal/diversify"
	"dust/internal/experiments/baselines"
	"dust/internal/vector"
)

// allAlgorithms is DUST beside the evaluation's diversifiers, all held to
// the same Problem contract.
func allAlgorithms() []baselines.Algorithm {
	return []baselines.Algorithm{
		diversify.NewDUST(), baselines.NewGMC(), baselines.NewGNE(), baselines.CLT{},
		baselines.MaxMin{}, baselines.Swap{}, baselines.Random{Seed: 3},
	}
}

func TestAllAlgorithmsReturnKDistinctIndices(t *testing.T) {
	p := diversify.ClusteredProblem(6, 10, 5, 1)
	for _, a := range allAlgorithms() {
		got := a.Select(p)
		if len(got) != 5 {
			t.Errorf("%s returned %d indices, want 5", a.Name(), len(got))
			continue
		}
		seen := map[int]bool{}
		for _, idx := range got {
			if idx < 0 || idx >= len(p.Tuples) {
				t.Errorf("%s returned out-of-range index %d", a.Name(), idx)
			}
			if seen[idx] {
				t.Errorf("%s returned duplicate index %d", a.Name(), idx)
			}
			seen[idx] = true
		}
	}
}

func TestAlgorithmsHandleDegenerateInputs(t *testing.T) {
	for _, a := range allAlgorithms() {
		if got := a.Select(diversify.Problem{K: 5}); got != nil {
			t.Errorf("%s on empty problem returned %v", a.Name(), got)
		}
		p := diversify.ClusteredProblem(2, 3, 0, 2)
		if got := a.Select(p); len(got) != 0 {
			t.Errorf("%s with k=0 returned %v", a.Name(), got)
		}
		// k larger than n clamps to n.
		p = diversify.ClusteredProblem(2, 2, 100, 3)
		if got := a.Select(p); len(got) != 4 {
			t.Errorf("%s with k>n returned %d indices, want 4", a.Name(), len(got))
		}
	}
}

func TestDiversifiersBeatTopSimilarOnDiversity(t *testing.T) {
	p := diversify.ClusteredProblem(6, 12, 6, 4)
	base := baselines.TopTuples{}.Select(p)
	baseAvg := diversify.AverageDiversity(p.Query, diversify.Gather(p.Tuples, base), p.Dist)
	for _, a := range allAlgorithms() {
		if a.Name() == "random" {
			continue // random can be unlucky; covered separately
		}
		sel := a.Select(p)
		avg := diversify.AverageDiversity(p.Query, diversify.Gather(p.Tuples, sel), p.Dist)
		if avg <= baseAvg {
			t.Errorf("%s average diversity %v <= top-similar %v", a.Name(), avg, baseAvg)
		}
	}
}

func TestMaxMinOutperformsRandomOnMinDiversity(t *testing.T) {
	p := diversify.ClusteredProblem(8, 10, 6, 7)
	mm := baselines.MaxMin{}.Select(p)
	rd := baselines.Random{Seed: 9}.Select(p)
	mmMin := diversify.MinDiversity(p.Query, diversify.Gather(p.Tuples, mm), p.Dist)
	rdMin := diversify.MinDiversity(p.Query, diversify.Gather(p.Tuples, rd), p.Dist)
	if mmMin <= rdMin {
		t.Errorf("MaxMin min-diversity %v <= random %v", mmMin, rdMin)
	}
}

func TestGMCDeterministic(t *testing.T) {
	p := diversify.ClusteredProblem(5, 8, 4, 8)
	a := baselines.NewGMC().Select(p)
	b := baselines.NewGMC().Select(p)
	if !equalInts(a, b) {
		t.Error("GMC nondeterministic")
	}
}

func TestGNEAtLeastMatchesItsConstruction(t *testing.T) {
	// GNE's local search must never return something worse than GMC-like
	// construction on the same objective; sanity check via avg diversity.
	p := diversify.ClusteredProblem(5, 8, 4, 10)
	gne := baselines.NewGNE().Select(p)
	if len(gne) != 4 {
		t.Fatalf("GNE returned %d", len(gne))
	}
	avg := diversify.AverageDiversity(p.Query, diversify.Gather(p.Tuples, gne), p.Dist)
	rd := baselines.Random{Seed: 17}.Select(p)
	rdAvg := diversify.AverageDiversity(p.Query, diversify.Gather(p.Tuples, rd), p.Dist)
	if avg < rdAvg*0.8 {
		t.Errorf("GNE avg diversity %v far below random %v", avg, rdAvg)
	}
}

func TestGatherAndTopTuples(t *testing.T) {
	p := diversify.ClusteredProblem(3, 4, 2, 11)
	sel := baselines.TopTuples{}.Select(p)
	if len(sel) != 2 {
		t.Fatalf("TopTuples returned %d", len(sel))
	}
	// The top-similar tuples must come from the query-coincident cluster 0.
	for _, idx := range sel {
		if idx/4 != 0 {
			t.Errorf("top-similar picked tuple %d outside redundant cluster", idx)
		}
	}
	g := diversify.Gather(p.Tuples, sel)
	if len(g) != 2 {
		t.Error("Gather length mismatch")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: every algorithm returns exactly min(k, n) distinct in-range
// indices on any random problem.
func TestSelectionWellFormedProperty(t *testing.T) {
	algos := []baselines.Algorithm{
		diversify.NewDUST(), baselines.NewGMC(), baselines.CLT{}, baselines.MaxMin{},
		baselines.Swap{}, baselines.Random{Seed: 2}, baselines.TopTuples{},
	}
	f := func(seedBytes []byte, k int) bool {
		p := diversify.RandomProblem(seedBytes, k)
		want := p.K
		if want > len(p.Tuples) {
			want = len(p.Tuples)
		}
		for _, a := range algos {
			got := a.Select(p)
			if len(got) != want {
				return false
			}
			seen := map[int]bool{}
			for _, idx := range got {
				if idx < 0 || idx >= len(p.Tuples) || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: metrics are non-negative and MinDiversity never exceeds the
// average pairwise distance implied by AverageDiversity's numerator.
func TestMetricsNonNegativeProperty(t *testing.T) {
	f := func(seedBytes []byte) bool {
		p := diversify.RandomProblem(seedBytes, 5)
		sel := baselines.Random{Seed: 5}.Select(p.Normalized())
		chosen := diversify.Gather(p.Tuples, sel)
		avg := diversify.AverageDiversity(p.Query, chosen, vector.Euclidean)
		min := diversify.MinDiversity(p.Query, chosen, vector.Euclidean)
		return avg >= 0 && min >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
