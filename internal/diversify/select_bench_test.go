package diversify

import (
	"fmt"
	"runtime"
	"testing"

	"dust/internal/embed"
	"dust/internal/region"
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

// TestSelectAllocBytes pins the steady-state heap bytes of one Select at
// the tall shape: small per-call slices only, the clustering's working
// arrays being the cluster package's recycled scratch. The distance matrix and the
// unit rows it is filled from share one scratch region, recycled through a
// free list the collector cannot empty, and clustering works in its cells,
// so after the first call neither the n² cells nor the 8·n·dim unit rows
// show up on the heap, and the process maps exactly one region: the
// matrix's.
func TestSelectAllocBytes(t *testing.T) {
	const n = 1000
	p := servedProblem(n)
	algo := NewDUST()
	// The first call maps the matrix's region, dropping the smaller ones
	// other problems left on the list.
	for i := 0; i < 3; i++ {
		algo.Select(p)
	}
	const runs = 5
	held := region.ScratchBytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		algo.Select(p)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	// The kept indices (8·n), the gathered rows' headers (24·n) and the
	// clusters (8·n): about 43 KB. It was 300 KB with the cluster package's
	// working arrays on the heap, the 8·n·dim + 512 KB before that with the
	// unit rows there too.
	const limit = 64 << 10
	if perOp > limit {
		t.Errorf("Select allocates %d bytes per call at n=%d, want <= %d", perOp, n, limit)
	}
	want := int64(8*vector.UnitRowsLen(n, embed.DefaultDim) + 4*n*n)
	if !region.Supported {
		want = 0 // the region is a heap slice, and not counted
	}
	if got := region.ScratchBytes(); got != want || held != want {
		t.Errorf("the process maps %d scratch bytes after warm-up and %d after %d more Selects at n=%d, want one region of %d", held, got, runs, n, want)
	}
}

// TestSelectAllocs: once warm, a Select allocates the same few objects
// at n and at 2n, at the balanced (n = 300) and the tall (n = 1000) shape —
// its clustering allocates only the clusters it returns. (Under -race the
// matrix's region is a heap slice and the count may move by one; CI runs
// this test without it.)
func TestSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's build keeps regions on the heap")
	}
	const limit = 24
	algo := NewDUST()
	allocs := func(n int) float64 {
		p := servedProblem(n)
		algo.Select(p) // maps the matrix's region
		// Regions other tests dropped unreleased are given back by their
		// finalizers; let those run before counting, and count over enough
		// runs that a one-off event does not show in the mean.
		runtime.GC()
		runtime.GC()
		return testing.AllocsPerRun(20, func() { algo.Select(p) })
	}
	for _, n := range []int{300, 1000} {
		if small, big := allocs(n), allocs(2*n); small != big || big > limit {
			t.Errorf("Select allocates %v objects at n=%d and %v at n=%d, want the same, at most %d", small, n, big, 2*n, limit)
		}
	}
}
