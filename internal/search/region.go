package search

import "sync/atomic"

// regionBytes is the bytes mapped for index regions whose handles are not
// yet finalized, process-wide. An index's blocks and codes are carved from
// one region (package region, carveIndex): one anonymous mapping, outside
// the collected heap, so that the collector neither scans nor counts it and
// grants the heap no headroom for it. The blocks are written only while
// the index is built or loaded, before the searcher is returned, and are
// read-only afterwards.
//
// The collector does not see the blocks' pointers into the mapping, so
// the mapping lives exactly as long as its handle: a finalizer unmaps it
// once no searcher holds the handle. Every *Starmie reading the region
// holds it (views and successors copy the searcher, handle included), and
// every method that reads or writes the blocks ends with
// runtime.KeepAlive on it, so no block is read after its region is gone,
// whatever a caller drops. Nothing exported returns a block.
var regionBytes atomic.Int64

// RegionBytes returns the bytes mapped, outside the Go heap, for the
// blocks and codes of the indexes this process holds (regions whose
// searchers are all dropped count until the collector has finalized
// them). A heap fallback is not counted: the heap's own statistics count it.
func RegionBytes() int64 { return regionBytes.Load() }
