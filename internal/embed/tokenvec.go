package embed

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"dust/internal/vector"
)

// bigTokenTableBytes and tokenTableBytes bound the vectors of the one big
// token-vector table and of each spare one, whatever the dimension: slots =
// bytes / (8*dim) rounded down to a power of two, 2 048 and 512 at dim 128,
// 256 and 64 at the 768 of Fig. 2 (tags add 16 bytes a slot). Measured, not
// guessed (docs/ARCHITECTURE.md, "The encode kernel"): over 240
// never-repeated queries of the benchmark's balanced / tall lakes, with the
// table kept across requests, the token, class and bigram reads miss 0.275 /
// 0.247 at 512 slots direct-mapped, 0.204 / 0.174 at 512 slots 4-way, 0.152 /
// 0.126 at 2 048 slots direct-mapped and 0.107 / 0.079 at 2 048 slots 4-way,
// against 0.147 / 0.089 for an unbounded memo emptied before every request.
// Ways pay at 2 048 slots and not at 512: a request's own 1 200-1 800
// distinct vectors overflow 512 slots wherever they go, while 2 048 slots
// also keep the lake's recurring vocabulary for the next request, and set
// conflicts are what evicts it. One table is big, not one per processor: the
// others serve index-build workers and overlapping requests, and 2 MB each
// would be 128 MB on 64 cores. These tables are sized for requests; an index
// build also reads a HotSet of its own (hotset.go) before it derives a
// vector its table lacks, and the set lives for the build only. Growing the
// tables for the build instead was refused: at 8 MB each the wide lake's
// build still derived 183 k vectors against the hot set's ≈ 160 k, and
// every server kept 17 MB of tables instead of 2.7 MB on a 2-core host (a
// benchmark run of that variant read wide's peak RSS at 173 against 145 MB).
const (
	bigTokenTableBytes = 2 << 20
	tokenTableBytes    = 512 << 10
	tokenTableWays     = 4
)

// tokenTable holds token vectors derived so far, keyed by the seed
// vector.PseudoUnit is called with, plus the scratch of the one EncodeTokens
// call that owns it. It is set-associative with LRU replacement inside a
// set. A vector is a pure function of (seed, dim), so a hit returns the bits
// a miss would derive and the table needs no epoch and no invalidation; it
// only decides when a vector is computed, never what it is.
type tokenTable struct {
	dim     int
	ways    int       // slots a set holds: tokenTableWays, or 1 in the one-slot fallback
	sets    int       // a power of two; set s is slots s*ways .. s*ways+ways-1
	seeds   []uint64  // seed held by each slot
	used    []uint64  // clock of each slot's last read; 0 while empty, so an empty slot cannot match seed 0
	clock   uint64    // reads of this table so far
	vecs    []float64 // slots x dim
	content []float64 // the owning call's token-content accumulator

	hits, misses uint64  // of the current call
	hot          *HotSet // the owning call's hot set, read before a derivation; nil on the request path
	kind         tokenTableKind
}

// tokenTableKind says where a table goes when its call releases it.
type tokenTableKind uint8

const (
	fallbackTable tokenTableKind = iota // left to the collector
	spareTable                          // back on the free list
	bigTable                            // back into the one big-table place
)

// resize empties the table for vectors of dim, as many slots as budget bytes
// hold rounded down to a power of two (one slot if that is under four). An
// array of the right length is kept, so a table moving between two
// power-of-two dimensions keeps its vectors' megabytes instead of allocating
// them again.
func (t *tokenTable) resize(dim, budget int) {
	slots, ways := 1, 1
	if s := budget / (8 * max(dim, 1)); s >= tokenTableWays {
		slots, ways = 1<<(bits.Len(uint(s))-1), tokenTableWays
	}
	t.dim, t.ways, t.sets = dim, ways, slots/ways
	t.seeds, t.used = fit(t.seeds, slots), fit(t.used, slots)
	clear(t.used)
	t.vecs, t.content = fit(t.vecs, slots*dim), fit(t.content, dim)
}

// fit returns s if it has capacity n, else a new slice of length n.
func fit[T any](s []T, n int) []T {
	if cap(s) == n {
		return s[:n]
	}
	return make([]T, n)
}

// bytes is what the table holds: vectors, tags and scratch.
func (t *tokenTable) bytes() int64 {
	return 8 * int64(len(t.vecs)+len(t.seeds)+len(t.used)+len(t.content))
}

// vector returns the pseudo-random unit vector of seed, deriving it into the
// least recently read slot of its set only if the set does not hold it. The
// slice aliases the slot: it is valid until the next call and must not leave
// EncodeTokens.
func (t *tokenTable) vector(seed uint64) []float64 {
	t.clock++
	first := (int(seed) & (t.sets - 1)) * t.ways
	victim := first
	for i := first; i < first+t.ways; i++ {
		if t.seeds[i] == seed && t.used[i] != 0 {
			t.hits++
			t.used[i] = t.clock
			return t.vecs[i*t.dim : (i+1)*t.dim]
		}
		if t.used[i] < t.used[victim] {
			victim = i
		}
	}
	// Only now, on the way to a derivation, the call's hot set: a check
	// before the set scan slowed the hits of requests, which have none.
	if t.hot != nil {
		if v := t.hot.vector(seed); v != nil {
			t.hits++
			return v
		}
	}
	t.misses++
	t.seeds[victim], t.used[victim] = seed, t.clock
	v := t.vecs[victim*t.dim : (victim+1)*t.dim]
	vector.PseudoUnit(seed, v)
	return v
}

// tokenTables holds the tables no call owns. The big table is taken by any
// call that finds it free, so the lake's token, class and bigram vectors
// survive from one request to the next. A call that finds it taken — an
// index-build worker, an overlapping request — takes a spare from the free
// list (the idiom of cluster.workBufs; a stack because that is what a slice
// gives). Encoding is CPU-bound, so no more than GOMAXPROCS tables can be in
// use at once: once the big one and maxTokenTables-1 spares exist, a call
// that finds none free runs the same loop on a one-slot table of its own
// instead of allocating another half megabyte.
var tokenTables struct {
	sync.Mutex
	big      *tokenTable // nil while a call owns it, and before the first call
	bigTaken bool
	free     []*tokenTable
	spares   int // spare tables made
}

var maxTokenTables = runtime.GOMAXPROCS(0)

var (
	tokenVectorHits, tokenVectorMisses atomic.Uint64
	tokenTableHeld                     atomic.Int64
)

// TokenVectorStats returns how many token vectors EncodeTokens calls have
// read from a table or a hot set (hits) and derived (misses) in this process
// so far; a hot set's own derivations are misses.
func TokenVectorStats() (hits, misses uint64) {
	return tokenVectorHits.Load(), tokenVectorMisses.Load()
}

// TokenVectorBytes returns the bytes the process's token-vector tables hold,
// owned by a call or not: at most the big table plus GOMAXPROCS-1 spares
// (2 MB + (GOMAXPROCS-1) × 512 KB of vectors at any dimension, plus tags and
// scratch). A one-slot fallback table lives for one call and is not counted;
// a hot set is, from its derivation until its build releases it.
func TokenVectorBytes() int64 { return tokenTableHeld.Load() }

// takeTokenTable hands the caller a table of the given dimension, reading hot
// (nil for none) before a derivation, to own until it calls release.
func takeTokenTable(dim int, hot *HotSet) *tokenTable {
	var t *tokenTable
	kind, budget := bigTable, bigTokenTableBytes
	tokenTables.Lock()
	if !tokenTables.bigTaken {
		t, tokenTables.big, tokenTables.bigTaken = tokenTables.big, nil, true
	} else {
		kind, budget = spareTable, tokenTableBytes
		if n := len(tokenTables.free); n > 0 {
			t, tokenTables.free = tokenTables.free[n-1], tokenTables.free[:n-1]
		} else if tokenTables.spares < maxTokenTables-1 {
			tokenTables.spares++
		} else {
			kind, budget = fallbackTable, 0
		}
	}
	tokenTables.Unlock()
	fresh := t == nil
	if fresh {
		t = &tokenTable{kind: kind}
	}
	if fresh || t.dim != dim {
		// A vector is valid for one dimension only: a kept table of another
		// dimension is emptied for this one.
		held := t.bytes()
		t.resize(dim, budget)
		if kind != fallbackTable {
			tokenTableHeld.Add(t.bytes() - held)
		}
	}
	t.hot = hot
	return t
}

// release adds the call's counts to the process's, drops its hot set and
// gives the table back.
func (t *tokenTable) release() {
	tokenVectorHits.Add(t.hits)
	tokenVectorMisses.Add(t.misses)
	t.hits, t.misses, t.hot = 0, 0, nil
	switch t.kind {
	case bigTable:
		tokenTables.Lock()
		tokenTables.big, tokenTables.bigTaken = t, false
		tokenTables.Unlock()
	case spareTable:
		tokenTables.Lock()
		tokenTables.free = append(tokenTables.free, t)
		tokenTables.Unlock()
	}
}
