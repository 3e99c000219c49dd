package embed

import (
	"cmp"
	"math/bits"
	"slices"

	"dust/internal/par"
	"dust/internal/vector"
)

// hotSetBytes bounds the vectors of a hot set, whatever the dimension:
// 4 096 at dim 128, 682 at the 768 of Fig. 2 (seeds and index add 16 bytes a
// vector at most). On the benchmark's wide lake the 4 096 vectors read most
// often in the build's sample take a build from ≈ 525 k derivations to
// ≈ 160 k (docs/ARCHITECTURE.md, "The encode kernel").
const hotSetBytes = 4 << 20

// HotSet is a read-only set of token, class and bigram vectors, derived once
// ahead of an index build and shared by all of its workers: an encode through
// StarmieEncoder.WithHotSet reads a vector here whenever its token-vector
// table does not hold it, before deriving it, so a hot vector never takes a
// table slot. A vector is a pure function of (seed, dim), so the set
// decides only when a vector is derived, never its bits. Its bytes count in
// TokenVectorBytes until Release; the build that made it releases it as it
// returns, and nothing else holds it.
type HotSet struct {
	dim   int
	seeds []uint64  // seed of vector i
	vecs  []float64 // n x dim
	slots []int32   // open-addressed seed index: i+1 for vector i, 0 while empty
	shift uint      // a seed's home slot is its Fibonacci hash >> shift
	held  int64     // bytes counted in TokenVectorBytes, 0 once released
}

// HotCounter counts the seeds an encoder reads over sample token streams,
// to pick a HotSet from.
type HotCounter struct {
	e     *Encoder
	reads map[uint64]int32
}

// NewHotCounter returns an empty counter of e's reads.
func (e *Encoder) NewHotCounter() *HotCounter {
	return &HotCounter{e: e, reads: map[uint64]int32{}}
}

// Add counts the seed of every token, class and bigram vector
// EncodeTokensInto reads when it encodes tokens, by the same rules; the noise
// vector, seeded by the whole stream, is never read twice and is left out.
func (c *HotCounter) Add(tokens []string) {
	isColHeader := func(t string) bool {
		return len(t) > 2 && t[0] == 'H' && t[1] == ':'
	}
	base := hashSeed(c.e.seed)
	class := hashAdd(base, "class:")
	for i, t := range tokens {
		h := hashAdd(base, t)
		c.reads[h]++
		if cls, ok := classOf(t); ok {
			c.reads[hashAdd(class, cls)]++
		}
		if c.e.contextual && i+1 < len(tokens) && !isColHeader(t) && !isColHeader(tokens[i+1]) {
			c.reads[hashAdd(hashAdd(h, "\x00"), tokens[i+1])]++
		}
	}
}

// HotSet derives, on up to workers goroutines, the vectors of the seeds
// counted at least twice, most-read first and ties by seed, as many as
// hotSetBytes hold. It returns nil when no seed was counted twice. The
// derivations count as misses in TokenVectorStats.
func (c *HotCounter) HotSet(workers int) *HotSet {
	type counted struct {
		seed  uint64
		reads int32
	}
	var hot []counted
	for seed, n := range c.reads {
		if n >= 2 {
			hot = append(hot, counted{seed, n})
		}
	}
	if len(hot) == 0 {
		return nil
	}
	slices.SortFunc(hot, func(a, b counted) int {
		return cmp.Or(cmp.Compare(b.reads, a.reads), cmp.Compare(a.seed, b.seed))
	})
	dim := c.e.dim
	hot = hot[:min(len(hot), max(hotSetBytes/(8*max(dim, 1)), 1))]
	n := len(hot)
	b := bits.Len(uint(2*n - 1)) // 2^b slots: at least twice the vectors
	h := &HotSet{
		dim:   dim,
		seeds: make([]uint64, n),
		vecs:  make([]float64, n*dim),
		slots: make([]int32, 1<<b),
		shift: uint(64 - b),
	}
	for i, hc := range hot {
		h.seeds[i] = hc.seed
		s := h.home(hc.seed)
		for h.slots[s] != 0 {
			s = (s + 1) & (len(h.slots) - 1)
		}
		h.slots[s] = int32(i + 1)
	}
	par.ForChunks(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vector.PseudoUnit(h.seeds[i], h.vecs[i*dim:(i+1)*dim])
		}
	})
	tokenVectorMisses.Add(uint64(n))
	h.held = 8*int64(len(h.seeds)+len(h.vecs)) + 4*int64(len(h.slots))
	tokenTableHeld.Add(h.held)
	return h
}

// home is seed's first slot.
func (h *HotSet) home(seed uint64) int { return int((seed * 0x9e3779b97f4a7c15) >> h.shift) }

// vector returns the vector of seed, or nil when the set does not hold it.
// The slice aliases the set and must not be written.
func (h *HotSet) vector(seed uint64) []float64 {
	for s := h.home(seed); ; s = (s + 1) & (len(h.slots) - 1) {
		i := int(h.slots[s]) - 1
		if i < 0 {
			return nil
		}
		if h.seeds[i] == seed {
			return h.vecs[i*h.dim : (i+1)*h.dim]
		}
	}
}

// Release takes the set's bytes out of TokenVectorBytes. The set must not be
// read after it; a nil set and a second call are no-ops.
func (h *HotSet) Release() {
	if h == nil {
		return
	}
	tokenTableHeld.Add(-h.held)
	h.held = 0
}
