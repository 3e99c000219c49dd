package diversify

import (
	"slices"
	"sync"
	"testing"

	"dust/internal/vector"
)

// parallelProblem builds a deterministic workload with several provenance
// groups, large enough that Prune and the cluster matrices actually chunk.
func parallelProblem(n, workers int) Problem {
	state := uint64(7)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40)/float64(1<<24) - 0.5
	}
	tuples := make([]vector.Vec, n)
	groups := make([]int, n)
	for i := range tuples {
		v := make(vector.Vec, 12)
		for j := range v {
			v[j] = next()
		}
		tuples[i] = v
		groups[i] = i % 5
	}
	return Problem{
		Query:   tuples[:7],
		Tuples:  tuples[7:],
		Groups:  groups[7:],
		K:       15,
		Dist:    vector.CosineDistance,
		Workers: workers,
	}
}

func assertSameIndices(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d indices, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func TestPruneDeterministicAcrossWorkers(t *testing.T) {
	want := Prune(parallelProblem(700, 1), 250)
	for _, workers := range []int{2, 8} {
		got := Prune(parallelProblem(700, workers), 250)
		assertSameIndices(t, "Prune", got, want)
	}
}

func TestRerankDeterministicAcrossWorkers(t *testing.T) {
	candidates := make([]int, 300)
	for i := range candidates {
		candidates[i] = i * 2
	}
	want := rerankByQueryDistance(parallelProblem(700, 1), candidates)
	for _, workers := range []int{2, 8} {
		got := rerankByQueryDistance(parallelProblem(700, workers), candidates)
		assertSameIndices(t, "rerankByQueryDistance", got, want)
	}
}

func TestDUSTSelectDeterministicAcrossWorkers(t *testing.T) {
	algo := NewDUST()
	algo.S = 300 // force the pruning stage to run
	want := algo.Select(parallelProblem(900, 1))
	if len(want) == 0 {
		t.Fatal("sequential DUST selected nothing")
	}
	for _, workers := range []int{2, 8} {
		got := algo.Select(parallelProblem(900, workers))
		assertSameIndices(t, "DUST.Select", got, want)
	}
}

// TestSelectStableAcrossScratchReuse: Select answers the same on first use,
// after the clustering scratch has been used by a different problem, at
// every worker count, and from concurrent goroutines sharing the pool.
func TestSelectStableAcrossScratchReuse(t *testing.T) {
	algo := NewDUST()
	problems := []func(workers int) Problem{
		func(w int) Problem { p := servedProblem(300); p.Workers = w; return p },
		func(w int) Problem { return parallelProblem(500, w) },
	}
	var want [][]int
	for _, mk := range problems {
		want = append(want, algo.Select(mk(1)))
	}
	if slices.Equal(want[0], want[1]) {
		t.Fatal("fixtures select the same indices; the test could not see a leak")
	}
	for _, workers := range []int{1, 2, 8} {
		for pi := len(problems) - 1; pi >= 0; pi-- {
			assertSameIndices(t, "Select after scratch reuse", algo.Select(problems[pi](workers)), want[pi])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				pi := (g + i) % len(problems)
				if got := algo.Select(problems[pi](1 + g%3)); !slices.Equal(got, want[pi]) {
					t.Errorf("goroutine %d: Select = %v, want %v", g, got, want[pi])
				}
			}
		}(g)
	}
	wg.Wait()
}
