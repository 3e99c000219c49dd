package diversify

import (
	"fmt"
	"runtime"
	"testing"

	"dust/internal/embed"
	"dust/internal/vector"
)

// servedProblem builds a Select input shaped like what the pipeline serves:
// n unioned tuples from a dozen source tables, embedded at embed.DefaultDim
// by the pipeline's default tuple encoder, k = 10, cosine distance.
func servedProblem(n int) Problem {
	enc := embed.NewRoBERTa(embed.WithAnisotropy(0.05))
	headers := []string{"name", "city", "country", "year", "category"}
	cities := []string{"paris", "lima", "oslo", "cairo", "quito", "hanoi", "perth"}
	kinds := []string{"park", "museum", "bridge", "garden", "market"}
	encode := func(i int) vector.Vec {
		return enc.EncodeTuple(headers, []string{
			fmt.Sprintf("%s %d", kinds[i%len(kinds)], i),
			cities[i%len(cities)],
			fmt.Sprintf("country %d", i%23),
			fmt.Sprint(1900 + i%120),
			kinds[(i/7)%len(kinds)],
		})
	}
	const queryRows = 8
	p := Problem{K: 10, Dist: vector.CosineDistance, Workers: 1}
	for i := 0; i < queryRows; i++ {
		p.Query = append(p.Query, encode(i))
	}
	for i := 0; i < n; i++ {
		p.Tuples = append(p.Tuples, encode(queryRows+i))
		p.Groups = append(p.Groups, i%12)
	}
	return p
}

// BenchmarkSelect is the micro view of the benchmark's
// diversify.select_p50_ms: the default NewDUST() over pools the size the
// balanced (~300) and tall (~1000) workloads union per query.
func BenchmarkSelect(b *testing.B) {
	for _, n := range []int{300, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			p := servedProblem(n)
			algo := NewDUST()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := algo.Select(p); len(got) != p.K {
					b.Fatalf("selected %d, want %d", len(got), p.K)
				}
			}
		})
	}
}

// TestSelectAllocBytes pins the steady-state memory of one Select at the
// tall shape: the unit-row arena and small per-call slices. The distance
// matrix and the clustering's working copy of it are recycled (a free list
// the collector cannot empty), so after the first call neither n² buffer
// may show up.
func TestSelectAllocBytes(t *testing.T) {
	const n = 1000
	p := servedProblem(n)
	algo := NewDUST()
	// The first calls allocate both matrices, once the buffers smaller
	// problems left on the list are used up.
	for i := 0; i < 3; i++ {
		algo.Select(p)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		algo.Select(p)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	limit := uint64(8*n*embed.DefaultDim + 512<<10) // 1.5 MB, against 4 MB for one matrix
	if perOp > limit {
		t.Errorf("Select allocates %d bytes per call at n=%d, want <= %d", perOp, n, limit)
	}
}
