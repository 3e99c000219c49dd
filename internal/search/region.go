package search

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// region is the memory an index's blocks and codes are carved from: one
// anonymous mapping, outside the collected heap, so that the collector
// neither scans nor counts it and grants the heap no headroom for it. The
// blocks are written only while the index is built or loaded, before the
// searcher is returned, and are read-only afterwards.
//
// The collector does not see the blocks' pointers into the mapping, so
// the mapping lives exactly as long as its handle: a finalizer unmaps it
// once no searcher holds the handle. Every *Starmie reading the region
// holds it (views and successors copy the searcher, handle included), and
// every method that reads or writes the blocks ends with
// runtime.KeepAlive on it, so no block is read after its region is gone,
// whatever a caller drops. Nothing exported returns a block.
//
// Where no mapping can be made (mmap fails, or the platform has none) the
// blocks and codes are an ordinary heap slice holding the same bits and
// the handle is nil: the blocks then keep their memory alive themselves.
type region struct {
	mem     []byte
	release func([]byte) error
}

// regionBytes is the bytes mapped for regions whose handles are not yet
// finalized, process-wide.
var regionBytes atomic.Int64

// RegionBytes returns the bytes mapped, outside the Go heap, for the
// blocks and codes of the indexes this process holds (regions whose
// searchers are all dropped count until the collector has finalized
// them). A heap fallback is not counted: the heap's own statistics count it.
func RegionBytes() int64 { return regionBytes.Load() }

// mapRegion and releaseRegion make and drop a region's mapping: mapAnon
// and unmapAnon, which tests replace (a failing map, or a release that
// protects the pages instead of unmapping them, so that a late read faults
// at once rather than reading a mapping reused since). A region keeps the
// release it was made with.
var (
	mapRegion     = mapAnon
	releaseRegion = unmapAnon
)

// newRegion returns floats float64s and codes int8s, zeroed, carved from
// one new region, and its handle: nil when the pair lives on the heap.
func newRegion(floats, codes int) (*region, []float64, []int8) {
	size := 8*floats + codes
	if size == 0 {
		return nil, nil, nil
	}
	var r *region
	mem, err := mapRegion(size)
	if err == nil {
		r = &region{mem: mem, release: releaseRegion}
		regionBytes.Add(int64(size))
		runtime.SetFinalizer(r, (*region).free)
	} else {
		w := make([]float64, (size+7)/8) // 8-aligned, like a mapping
		mem = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), size)
	}
	var f []float64
	var k []int8
	if floats > 0 {
		f = unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(mem))), floats)
	}
	if codes > 0 {
		k = unsafe.Slice((*int8)(unsafe.Pointer(&mem[8*floats])), codes)
	}
	return r, f, k
}

// free drops r's mapping; the finalizer's, once no searcher holds r.
func (r *region) free() {
	regionBytes.Add(-int64(len(r.mem)))
	_ = r.release(r.mem) // nothing to do when an unmap fails: the bytes are lost
}
