package cluster

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"dust/internal/region"
	"dust/internal/region/regiontest"
	"dust/internal/vector"
)

// matrixBytes is the region a cosine matrix of n rows of dimension dim
// takes: its unit-row arena, then its n² cells.
func matrixBytes(n, dim int) int { return 8*vector.UnitRowsLen(n, dim) + 4*n*n }

// needMapping skips a test that counts or protects mapped bytes in a build
// that maps nothing.
func needMapping(t *testing.T) {
	if !region.Supported {
		t.Skip("this build maps no region (the race detector's runtime does not see mapped memory, so every region is a heap slice): there are no mapped bytes to count")
	}
}

// settleScratch runs the collector until the finalizers of the matrices
// earlier tests dropped unreleased have given their regions back, then
// empties the free list: the next cosine matrix maps a fresh region.
func settleScratch() {
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
	}
	matrixPool.Drain()
}

// bitsEqual reports whether two float slices hold the same bits.
func bitsEqual[T float32 | float64](a, b []T) bool {
	return slices.EqualFunc(a, b, func(x, y T) bool {
		return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	})
}

// sameMatrix compares two cosine matrices bit for bit: cells and unit rows.
func sameMatrix(got, want *Matrix) error {
	if !bitsEqual(got.d, want.d) {
		return fmt.Errorf("cells differ")
	}
	if got.dim != want.dim || !bitsEqual(got.unit, want.unit) {
		return fmt.Errorf("unit rows differ")
	}
	return nil
}

// kernelBodies runs f under the kernel body this process selected and
// under the generic one.
func kernelBodies(t *testing.T, f func(t *testing.T)) {
	t.Run("selected", f)
	t.Run("generic", func(t *testing.T) {
		defer vector.ForceGenericKernel()()
		f(t)
	})
}

// TestAgglomerativeScratchLeaksNothing: clustering consumes a cosine
// matrix's cells, and Release lists its region with cluster distances, a
// +Inf diagonal, compacted rows and unpacked unit rows in it; here every
// region given back is also filled with NaN (regiontest.Poison). A matrix
// built in such a region — as large as it needs and larger — has the cells,
// unit rows and medoids of one built in fresh memory and clusters to the
// same dendrogram: first in a fresh region, then back to back in regions
// the other problem dirtied (larger and smaller), then from concurrent
// goroutines; at workers 1 and 8, under both kernel bodies.
func TestAgglomerativeScratchLeaksNothing(t *testing.T) {
	regiontest.Poison(t)
	kernelBodies(t, testScratchLeaksNothing)
}

func testScratchLeaksNothing(t *testing.T) {
	const dim = 16
	for _, n := range []int{1, 2, 31, 32, 33, 257} {
		items := awkwardVecs(n, dim)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		settleScratch()
		fresh := NewMatrixWorkers(items, vector.CosineDistance, 1)
		for _, workers := range []int{1, 8} {
			for _, side := range []int{n, n + 3} {
				matrixPool.Drain()
				poison := matrixPool.Take(matrixBytes(side, dim))
				poison.Release()
				reused := NewMatrixWorkers(items, vector.CosineDistance, workers)
				if reused.buf != poison {
					t.Fatalf("n=%d: the matrix did not take the listed region", n)
				}
				if err := sameMatrix(reused, fresh); err != nil {
					t.Fatalf("n=%d workers=%d: matrix built in a poisoned %dx%d region: %v", n, workers, side, side, err)
				}
				if got, want := reused.MedoidWorkers(all, workers), fresh.Medoid(all); got != want {
					t.Fatalf("n=%d workers=%d: medoid %d in a poisoned region, want %d", n, workers, got, want)
				}
				reused.Release()
				if reused.d != nil || reused.unit != nil || reused.buf != nil {
					t.Fatalf("Release left %d cells and %d unit-row elements with the matrix", len(reused.d), len(reused.unit))
				}
			}
		}
		fresh.Release()
	}

	type problem struct {
		items   []vector.Vec
		opts    Options
		want    *dendrogram
		medoids []int
	}
	big := &problem{items: awkwardVecs(257, dim)}
	small := &problem{
		items: duplicatedVecs(60, 5),
		opts:  Options{CannotLink: func(i, j int) bool { return i/4 == j/4 }},
	}
	// run clusters p's items and returns the dendrogram and the medoid of
	// every cluster of the cut at 10, read from the consumed matrix.
	run := func(p *problem, workers int) (*dendrogram, []int) {
		m := NewMatrixWorkers(p.items, vector.CosineDistance, workers)
		defer m.Release()
		d := agglomerative(m, p.opts)
		labels, k := d.cut(10)
		var medoids []int
		for _, members := range members(labels, k) {
			medoids = append(medoids, m.MedoidWorkers(members, workers))
		}
		return d, medoids
	}
	for _, p := range []*problem{big, small} {
		settleScratch()
		p.want, p.medoids = run(p, 1) // in a fresh region
		if len(p.want.Merges) == 0 {
			t.Fatal("fixture produced no merges")
		}
		m := NewMatrix(p.items, vector.CosineDistance)
		cells := slices.Clone(m.d)
		agglomerative(m, p.opts)
		if bitsEqual(m.d, cells) {
			t.Fatal("clustering left the cells as built: the regions below would not be dirty")
		}
		m.Release()
	}
	check := func(label string, p *problem, workers int) error {
		got, medoids := run(p, workers)
		if !reflect.DeepEqual(got, p.want) {
			return fmt.Errorf("%s: dendrogram differs from the fresh-region run", label)
		}
		if !slices.Equal(medoids, p.medoids) {
			return fmt.Errorf("%s: medoids %v, want %v", label, medoids, p.medoids)
		}
		return nil
	}
	for i, p := range []*problem{big, small, small, big, small, big} {
		for _, workers := range []int{1, 8} {
			if err := check(fmt.Sprintf("back to back #%d, workers %d", i, workers), p, workers); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				p := []*problem{big, small}[(g+i)%2]
				if err := check(fmt.Sprintf("goroutine %d run %d", g, i), p, 1+7*(i%2)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestScratchMapsNothingWhenSteady: once warm, a steady run of
// equal-shaped clusterings takes every matrix's region off the free list
// and maps none.
func TestScratchMapsNothingWhenSteady(t *testing.T) {
	needMapping(t)
	settleScratch()
	items := awkwardVecs(300, 32)
	cluster := func() {
		m := NewMatrixWorkers(items, vector.CosineDistance, 2)
		defer m.Release()
		agglomerative(m, Options{})
	}
	cluster()
	maps, held := region.Maps(), region.ScratchBytes()
	for i := 0; i < 20; i++ {
		cluster()
	}
	if n := region.Maps() - maps; n != 0 {
		t.Errorf("20 equal-shaped clusterings after warm-up mapped %d regions, want 0", n)
	}
	if got := region.ScratchBytes(); got != held {
		t.Errorf("scratch bytes moved from %d to %d over a steady run", held, got)
	}
}

// TestScratchFinalizerGivesBack: matrices dropped unreleased give their
// regions back from the finalizer — one per processor to the list, the
// rest unmapped — so the scratch gauge returns to what it read with the
// list full.
func TestScratchFinalizerGivesBack(t *testing.T) {
	needMapping(t)
	settleScratch()
	items := awkwardVecs(64, 16)
	size := int64(matrixBytes(64, 16))
	procs := runtime.GOMAXPROCS(0)
	base := region.ScratchBytes()
	held := make([]*Matrix, procs)
	for i := range held {
		held[i] = NewMatrix(items, vector.CosineDistance)
	}
	for _, m := range held {
		m.Release()
	}
	listed := region.ScratchBytes()
	if listed != base+int64(procs)*size {
		t.Fatalf("%d released matrices list %d bytes, want %d", procs, listed-base, int64(procs)*size)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no finalizer runs while they are made
	dropped := make([]*Matrix, 2*procs+1)
	for i := range dropped {
		dropped[i] = NewMatrix(items, vector.CosineDistance)
	}
	if got, want := region.ScratchBytes(), listed+int64(procs+1)*size; got != want {
		t.Fatalf("%d matrices hold %d scratch bytes, want %d", len(dropped), got, want)
	}
	dropped = nil
	for i := 0; i < 500 && region.ScratchBytes() != listed; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := region.ScratchBytes(); got != listed {
		t.Fatalf("with the unreleased matrices dropped the gauge reads %d, want %d", got, listed)
	}
}

// sink keeps the loads of TestScratchLateReadFaults.
var sink float64

// TestScratchLateReadFaults: a matrix released with the free list full has
// its region released, and with releases protecting the pages a late read
// of its unit rows or its cells faults instead of reading stale memory.
func TestScratchLateReadFaults(t *testing.T) {
	needMapping(t)
	if !regiontest.Protect(t) {
		t.Skip("released regions are protected on Linux only")
	}
	settleScratch()
	items := awkwardVecs(64, 16)
	procs := runtime.GOMAXPROCS(0)
	ms := make([]*Matrix, procs+1)
	for i := range ms {
		ms[i] = NewMatrix(items, vector.CosineDistance)
	}
	for _, m := range ms[:procs] {
		m.Release() // fills the list
	}
	late := ms[procs]
	row, cells := late.row(3), late.d
	late.Release()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	faults := func(read func()) (faulted bool) {
		defer func() { faulted = recover() != nil }()
		read()
		return false
	}
	if !faults(func() { sink = row[0] }) {
		t.Error("a unit row read after Release did not fault")
	}
	if !faults(func() { sink = float64(cells[0]) }) {
		t.Error("a cell read after Release did not fault")
	}
}

// TestEntryPointAllocs: once warm, the entry points allocate the same few
// objects at n and at 2n, and a cosine medoid allocates none: the chain,
// the cut, the medoid's sums and the copy a Euclidean matrix is clustered
// in are recycled scratch. Partition and the medoids of a Euclidean matrix
// allocate the clusters alone (2 objects); with the build and release of a
// cosine matrix around them, 9. BestPartition is held likewise by
// TestBestCutAllocs.
func TestEntryPointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's build keeps regions on the heap")
	}
	const limit = 12
	settleScratch()
	for _, dist := range []vector.DistanceFunc{vector.CosineDistance, vector.Euclidean} {
		cosine := vector.IsCosineDistance(dist)
		var medoids int
		allocs := func(n int) float64 {
			items := duplicatedVecs(n, 16)
			var m *Matrix
			if !cosine {
				m = NewMatrix(items, dist) // built once: Partition leaves its cells whole
			}
			return testing.AllocsPerRun(20, func() {
				if cosine {
					m = NewMatrix(items, dist)
					defer m.Release()
				}
				for _, members := range m.Partition(20, Options{}) {
					medoids += m.Medoid(members)
				}
			})
		}
		if small, big := allocs(150), allocs(300); small != big || big > limit {
			t.Errorf("cosine %v: Partition and its medoids allocate %v objects at n=150 and %v at n=300, want the same, at most %d", cosine, small, big, limit)
		}
	}
	m := NewMatrix(duplicatedVecs(300, 16), vector.CosineDistance)
	defer m.Release()
	all := make([]int, 300)
	for i := range all {
		all[i] = i
	}
	if got := testing.AllocsPerRun(20, func() { m.Medoid(all) }); got != 0 {
		t.Errorf("a cosine medoid of 300 members allocates %v objects, want 0", got)
	}
}
