package cluster

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// scratch is the working memory of one call into the package: the
// nearest-neighbour chain's slots, mask, chain and merges, the cut's
// labels, the silhouette sweep's state and its n² means, the Euclidean
// cells of a BestPartition and the copy it clusters in, a medoid's sums.
// Each call takes one from scratchPool and gives it back before it
// returns, so none of it reaches a caller; what a caller keeps (the
// clusters) is allocated fresh. The memory is on the collected heap but
// reused, so a steady run of clusterings allocates only what it returns.
type scratch struct {
	ints   stack[int]
	f32    stack[float32]
	f64    stack[float64]
	bools  stack[bool]
	merges stack[merge]
}

// maxScratchBytes bounds what one listed scratch holds: a call that needed
// more (an alignment universe of some 250 columns, a matrix of some 8 000
// items) leaves its scratch to the collector rather than keep it live in
// the list.
const maxScratchBytes = 1 << 20

// scratchPool lists the scratch of finished calls for the next ones: at
// most one per processor, since the work is CPU-bound. It is a plain list,
// not a sync.Pool, which the collector empties every other cycle.
var scratchPool struct {
	mu   sync.Mutex
	free []*scratch
}

// poisonScratch makes release fill the scratch it lists with NaN and
// garbage (PoisonScratch).
var poisonScratch atomic.Bool

// PoisonScratch makes every scratch given back fill its memory with NaN
// floats, out-of-range ints and true bools until restore is called, so that
// a call reading scratch it did not write first shows up in its answer. It
// is a test seam: the answers must not move under it.
func PoisonScratch() (restore func()) {
	poisonScratch.Store(true)
	return func() { poisonScratch.Store(false) }
}

// takeScratch returns the last listed scratch, or a new one.
func takeScratch() *scratch {
	p := &scratchPool
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return new(scratch)
}

// release lists s for the next call, unless it holds more than
// maxScratchBytes or the list is full. Nothing s handed out may be used
// afterwards.
func (s *scratch) release() {
	if s.bytes() > maxScratchBytes {
		return
	}
	if poisonScratch.Load() {
		s.poison()
	}
	s.ints.reset()
	s.f32.reset()
	s.f64.reset()
	s.bools.reset()
	s.merges.reset()
	p := &scratchPool
	p.mu.Lock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

func (s *scratch) bytes() int {
	return s.ints.bytes() + s.f32.bytes() + s.f64.bytes() + s.bools.bytes() + s.merges.bytes()
}

func (s *scratch) poison() {
	for i := range s.ints.buf {
		s.ints.buf[i] = math.MinInt64 + i
	}
	for i := range s.f32.buf {
		s.f32.buf[i] = float32(math.NaN())
	}
	for i := range s.f64.buf {
		s.f64.buf[i] = math.NaN()
	}
	for i := range s.bools.buf {
		s.bools.buf[i] = true
	}
	for i := range s.merges.buf {
		s.merges.buf[i] = merge{A: -1, B: math.MaxInt, Distance: math.NaN(), New: -i}
	}
}

// stack hands out slices of one reused array, in order, until reset, with
// whatever contents the array holds. A request the array cannot hold gets
// a new one as large as everything handed out since reset (at least twice
// the old), so a call repeated at one shape allocates nothing once warm.
// Slices handed out earlier keep the old array.
type stack[T any] struct {
	buf  []T
	off  int // elements handed out of buf
	used int // elements handed out since reset, from any array
}

// take returns n elements with arbitrary contents; appending past them
// allocates rather than reaching the next request's.
func (s *stack[T]) take(n int) []T {
	s.used += n
	if s.off+n > len(s.buf) {
		s.buf = make([]T, max(2*len(s.buf), s.used))
		s.off = 0
	}
	x := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return x
}

func (s *stack[T]) reset() { s.off, s.used = 0, 0 }

func (s *stack[T]) bytes() int {
	var zero T
	return len(s.buf) * int(unsafe.Sizeof(zero))
}
