// Package region is the memory the process keeps outside the collected
// heap: anonymous mappings, which the collector neither scans nor counts
// and for which it grants the heap no headroom. An index's blocks and
// codes live in one region for as long as a searcher holds it; a search's
// float scratch (the distance matrix and its unit rows, the pool's tuple
// vectors) lives in regions a Pool recycles from one search to the next.
//
// The collector does not see pointers into a mapping, so a region lives
// exactly as long as its handle, the *Region: a finalizer frees it (or, for
// a region taken from a Pool, gives it back) once the handle is
// unreachable. Whoever carves slices out of a region therefore holds the
// handle beside them, and every method that reads or writes such a slice
// ends with runtime.KeepAlive on the handle (or on the value holding it),
// so no slice is touched after its region is gone, whatever a caller
// drops.
//
// Where no mapping can be made — mmap fails, the platform has none, or the
// build runs the race detector, which does not see mapped memory — a region
// is an ordinary heap slice holding the same bits behind the same handle,
// and nothing else changes.
package region

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Region is the handle of one block of memory outside the collected heap
// (or, as a fallback, on it).
type Region struct {
	mem     []byte
	gauge   *atomic.Int64      // counts len(mem) while mapped; nil on the heap
	release func([]byte) error // the seam's release when the region was mapped
	pool    *Pool              // where a taken region goes back; nil for New
}

// Seams are the points tests replace: how a region is mapped, how a
// mapping is released, and what is done to a pool region's memory as it
// goes back on its list. A nil field keeps the default: mapAnon, unmapAnon,
// nothing.
type Seams struct {
	Map     func(size int) ([]byte, error)
	Release func([]byte) error
	Recycle func([]byte)
}

var (
	seams atomic.Pointer[Seams]
	maps  atomic.Int64 // mappings made, process-wide
)

func init() { seams.Store(&Seams{Map: mapAnon, Release: unmapAnon}) }

// Replace installs s, field by field, and returns a func that restores the
// seams it replaced. A region keeps the release it was mapped with. Tests
// only: a region mapped while s is installed is released by s.Release.
func Replace(s Seams) (restore func()) {
	old := seams.Load()
	next := *old
	if s.Map != nil {
		next.Map = s.Map
	}
	if s.Release != nil {
		next.Release = s.Release
	}
	if s.Recycle != nil {
		next.Recycle = s.Recycle
	}
	seams.Store(&next)
	return func() { seams.Store(old) }
}

// Maps returns how many mappings the process has made, through any seam:
// a steady run of equal-shaped searches makes none.
func Maps() int64 { return maps.Load() }

// New returns a region of size zeroed bytes, counted in gauge while it is
// mapped; its finalizer unmaps it once no one holds the handle.
func New(size int, gauge *atomic.Int64) *Region {
	r := alloc(size, gauge)
	if r.gauge != nil {
		runtime.SetFinalizer(r, (*Region).free)
	}
	return r
}

// alloc maps size bytes, or falls back to the heap.
func alloc(size int, gauge *atomic.Int64) *Region {
	if size == 0 {
		return &Region{}
	}
	s := seams.Load()
	if mem, err := s.Map(size); err == nil {
		maps.Add(1)
		gauge.Add(int64(size))
		return &Region{mem: mem, gauge: gauge, release: s.Release}
	}
	w := make([]float64, (size+7)/8) // 8-aligned, like a mapping
	return &Region{mem: unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), size)}
}

// Bytes returns the region's memory.
func (r *Region) Bytes() []byte { return r.mem }

// Mapped reports whether the region lives outside the heap.
func (r *Region) Mapped() bool { return r.gauge != nil }

// free drops r's mapping: New's finalizer, or a pool region the list has
// no room for. A heap region is left to the collector.
func (r *Region) free() {
	if r.gauge == nil {
		return
	}
	r.gauge.Add(-int64(len(r.mem)))
	_ = r.release(r.mem) // nothing to do when an unmap fails: the bytes are lost
}

// View returns n values of type T laid over mem from its start, which must
// be aligned for T. The values alias mem: they live as long as its region.
func View[T float32 | float64 | int8](mem []byte, n int) []T {
	if n == 0 {
		return nil
	}
	_ = mem[n*int(unsafe.Sizeof(*new(T)))-1] // bounds check
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n)
}

// scratchBytes counts the mapped bytes of every pool's regions, listed or
// taken.
var scratchBytes atomic.Int64

// ScratchBytes returns the bytes mapped for the process's scratch regions,
// listed for the next search or in use: at most GOMAXPROCS listed a pool,
// each sized to the largest request it has served, plus those taken. A
// heap fallback is not counted: the heap's own statistics count it.
func ScratchBytes() int64 { return scratchBytes.Load() }

// Pool is a free list of scratch regions, so a steady run of equal-shaped
// searches maps none. It is a plain list rather than a sync.Pool because
// the collector empties a sync.Pool every other cycle. Scratch work is
// CPU-bound, so it lists at most one region per processor; a region that
// finds the list full, or is too small for the request that pops it, is
// unmapped. The zero Pool is empty and ready.
type Pool struct {
	mu   sync.Mutex
	free []*Region
}

// Take returns a region of at least size bytes with arbitrary contents:
// the last one listed if large enough (smaller ones popped on the way are
// unmapped), or a new one. Release gives it back; so does its finalizer,
// should the handle become unreachable first.
func (p *Pool) Take(size int) *Region {
	var r *Region
	var small []*Region
	p.mu.Lock()
	for len(p.free) > 0 && r == nil {
		last := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if len(last.mem) >= size {
			r = last
		} else {
			small = append(small, last)
		}
	}
	p.mu.Unlock()
	for _, s := range small {
		s.free()
	}
	if r == nil {
		r = alloc(size, &scratchBytes)
		r.pool = p
	}
	runtime.SetFinalizer(r, (*Region).Release)
	return r
}

// Release gives a region taken from a Pool back to it, listed for the next
// Take or, with the list full, unmapped. Nothing may read the region's
// memory afterwards.
func (r *Region) Release() {
	runtime.SetFinalizer(r, nil)
	if rec := seams.Load().Recycle; rec != nil {
		rec(r.mem)
	}
	p := r.pool
	p.mu.Lock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, r)
		r = nil
	}
	p.mu.Unlock()
	if r != nil {
		r.free()
	}
}

// Drain unmaps every region p lists.
func (p *Pool) Drain() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, r := range free {
		r.free()
	}
}
