package embed

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"dust/internal/vector"
)

// tokenTableBytes bounds the vectors of one token-vector table, whatever the
// dimension: slots = tokenTableBytes / (8*dim) rounded down to a power of two,
// 512 at dim 128 and 64 at the 768 of Fig. 2 (tags add 9 bytes a slot).
// Measured, not guessed: the miss share of a direct-mapped table over 80
// consecutive searches of the benchmark's balanced / tall / wide lakes (1.21 M
// / 3.32 M / 0.45 M reads) is 0.44 / 0.40 / 0.44 at 256 slots, 0.36 / 0.33 /
// 0.35 at 512, 0.29 / 0.27 / 0.28 at 1024 and 0.23 / 0.21 / 0.22 at 2048,
// against 0.19 / 0.13 / 0.22 for an unbounded per-request memo; 512 slots
// emptied before every request miss 0.37 / 0.34 / 0.37, so a cold query gains
// what a replayed one does. 2048 slots (2 MB, out of L2) read 2 ms lower on
// balanced and nothing resolvable on tall, both inside the host's noise, at
// four times the resident bytes; ISSUE 17's prototype put 4-way LRU at only 6
// points of hit rate over direct-mapped at equal size. So: direct-mapped, small.
const tokenTableBytes = 512 << 10

// tokenTable is the scratch of one EncodeTokens call: a direct-mapped table
// of the token vectors derived so far, keyed by the seed vector.PseudoUnit is
// called with, plus the call's accumulator. A vector is a pure function of
// (seed, dim), so a hit returns the bits a miss would derive and the table
// needs no epoch and no invalidation; it only decides when a vector is
// computed, never what it is.
type tokenTable struct {
	dim     int
	seeds   []uint64  // seed held by each slot; their count is a power of two
	full    []bool    // false until a slot is first filled, so an empty one cannot match seed 0
	vecs    []float64 // slots x dim
	content []float64 // the call's token-content accumulator

	hits, misses uint64 // of the current call
	listed       bool   // one of the maxTokenTables that go back on the free list
}

// newTokenTable sizes a listed table by tokenTableBytes; an unlisted one is
// the one-slot fallback.
func newTokenTable(dim int, listed bool) *tokenTable {
	slots := 1
	if s := tokenTableBytes / (8 * max(dim, 1)); listed && s > 1 {
		slots = 1 << (bits.Len(uint(s)) - 1)
	}
	return &tokenTable{
		dim:     dim,
		seeds:   make([]uint64, slots),
		full:    make([]bool, slots),
		vecs:    make([]float64, slots*dim),
		content: make([]float64, dim),
		listed:  listed,
	}
}

// vector returns the pseudo-random unit vector of seed, deriving it only if
// its slot holds another. The slice aliases the slot: it is valid until the
// next call and must not leave EncodeTokens.
func (t *tokenTable) vector(seed uint64) []float64 {
	i := int(seed) & (len(t.seeds) - 1)
	v := t.vecs[i*t.dim : (i+1)*t.dim]
	if t.full[i] && t.seeds[i] == seed {
		t.hits++
		return v
	}
	t.misses++
	t.seeds[i], t.full[i] = seed, true
	vector.PseudoUnit(seed, v)
	return v
}

// tokenTables is the free list of finished calls' tables (the idiom of
// cluster.workBufs): encoding is CPU-bound, so one table per processor is all
// that concurrent calls can use. Once maxTokenTables exist, a call that finds
// the list empty runs the same loop on a one-slot table of its own instead of
// allocating another half megabyte. The list is a stack because that is what
// a slice gives; a queue measured the same hit share.
var tokenTables struct {
	sync.Mutex
	free []*tokenTable
	made int
}

var maxTokenTables = runtime.GOMAXPROCS(0)

var tokenVectorHits, tokenVectorMisses atomic.Uint64

// TokenVectorStats returns how many token vectors EncodeTokens calls have
// read from a table (hits) and derived (misses) in this process so far.
func TokenVectorStats() (hits, misses uint64) {
	return tokenVectorHits.Load(), tokenVectorMisses.Load()
}

// takeTokenTable hands the caller a table of the given dimension to own until
// it calls release.
func takeTokenTable(dim int) *tokenTable {
	var t *tokenTable
	tokenTables.Lock()
	if n := len(tokenTables.free); n > 0 {
		t, tokenTables.free = tokenTables.free[n-1], tokenTables.free[:n-1]
	}
	grow := t == nil && tokenTables.made < maxTokenTables
	if grow {
		tokenTables.made++
	}
	tokenTables.Unlock()
	if t != nil && t.dim == dim {
		return t
	}
	// A vector is valid for one dimension only: a listed table of another
	// dimension is dropped for a new one in its place.
	return newTokenTable(dim, t != nil || grow)
}

// release adds the call's counts to the process's and gives the table back.
func (t *tokenTable) release() {
	tokenVectorHits.Add(t.hits)
	tokenVectorMisses.Add(t.misses)
	t.hits, t.misses = 0, 0
	if !t.listed {
		return
	}
	tokenTables.Lock()
	tokenTables.free = append(tokenTables.free, t)
	tokenTables.Unlock()
}
