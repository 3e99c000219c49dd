package embed

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dust/internal/vector"
)

// referenceSeeds is every seed referenceEncodeTokens derives a token, class
// or bigram vector from, in read order: the pre-table kernel's own hashing,
// so it is an oracle independent of HotCounter.Add.
func referenceSeeds(e *Encoder, tokens []string) []uint64 {
	var seeds []uint64
	isHeader := func(t string) bool { return len(t) > 2 && t[0] == 'H' && t[1] == ':' }
	for i, t := range tokens {
		seeds = append(seeds, referenceHashString(t, e.seed))
		if cls, ok := classOf(t); ok {
			seeds = append(seeds, referenceHashString("class:"+cls, e.seed))
		}
		if e.contextual && i+1 < len(tokens) && !isHeader(t) && !isHeader(tokens[i+1]) {
			seeds = append(seeds, referenceHashString(t+"\x00"+tokens[i+1], e.seed))
		}
	}
	return seeds
}

// sorted returns a sorted copy of seeds.
func sorted(seeds []uint64) []uint64 {
	s := slices.Clone(seeds)
	slices.Sort(s)
	return s
}

// TestHotSetReadsEveryEncodedSeed pins that HotCounter.Add visits exactly the
// seeds the encode loop reads: a hot set counted from a sample that lists a
// stream twice holds the stream's distinct seeds and nothing else, and an
// encode of the stream through it reads every vector from it — deriving only
// the noise vector, whatever the token-vector tables hold — with the
// reference kernel's bits.
func TestHotSetReadsEveryEncodedSeed(t *testing.T) { eachKernel(t, testHotSetReadsEveryEncodedSeed) }

func testHotSetReadsEveryEncodedSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, d := range []int{64, 128} {
		for _, mk := range simulators {
			e := mk(WithDim(d))
			tokens := randomStream(rng, 300)
			c := e.NewHotCounter()
			c.Add(tokens)
			c.Add(tokens)
			h := c.HotSet(2)
			reads := referenceSeeds(e, tokens)
			want := slices.Compact(sorted(reads))
			got := sorted(h.seeds)
			if !slices.Equal(got, want) {
				t.Errorf("%s dim %d: hot set holds %d seeds, the stream reads %d distinct ones, or they differ", e.Name(), d, len(got), len(want))
			}
			h0, m0 := TokenVectorStats()
			v := e.withHotSet(h).EncodeTokens(tokens)
			h1, m1 := TokenVectorStats()
			h.Release()
			if !sameBits(v, referenceEncodeTokens(e, tokens)) {
				t.Errorf("%s dim %d: EncodeTokens through the hot set differs from the reference", e.Name(), d)
			}
			if h1-h0 != uint64(len(reads)) || m1-m0 != 1 {
				t.Errorf("%s dim %d: %d hits and %d misses over %d reads, want every read a hit and 1 miss (the noise vector)", e.Name(), d, h1-h0, m1-m0, len(reads))
			}
		}
	}
}

// TestHotSetPicksMostRead pins the pick rule at a dimension where the byte
// bound holds 512 vectors: seeds read three times all go in, then those read
// twice by increasing seed until the bound, never one read once; every
// vector is vector.PseudoUnit's; the set's bytes count in TokenVectorBytes
// until Release, and its derivations as misses.
func TestHotSetPicksMostRead(t *testing.T) {
	const dim = 1024
	e := NewFastText(WithDim(dim)) // not contextual; no class words below: one seed a token
	limit := hotSetBytes / (8 * dim)
	c := e.NewHotCounter()
	seed := func(i int) uint64 { return hashAdd(hashSeed(e.seed), fmt.Sprintf("pick%d", i)) }
	var thrice, twice []uint64
	for i := 0; i < 2*limit; i++ {
		tok := []string{fmt.Sprintf("pick%d", i)}
		switch {
		case i < limit/4:
			c.Add(tok)
			c.Add(tok)
			c.Add(tok)
			thrice = append(thrice, seed(i))
		case i < 3*limit/2:
			c.Add(tok)
			c.Add(tok)
			twice = append(twice, seed(i))
		default:
			c.Add(tok)
		}
	}
	slices.Sort(twice)
	want := sorted(append(thrice, twice[:limit-len(thrice)]...))

	b0 := TokenVectorBytes()
	_, m0 := TokenVectorStats()
	h := c.HotSet(3)
	_, m1 := TokenVectorStats()
	if got := sorted(h.seeds); !slices.Equal(got, want) {
		t.Fatalf("hot set holds %d seeds, want the %d most read, ties by seed", len(got), len(want))
	}
	if m1-m0 != uint64(limit) {
		t.Errorf("building the set counted %d misses, want %d", m1-m0, limit)
	}
	if got, want := TokenVectorBytes()-b0, int64(8*limit*(dim+1)+4*len(h.slots)); got != want {
		t.Errorf("TokenVectorBytes grew by %d, want the set's %d", got, want)
	}
	ref := make([]float64, dim)
	for i := 0; i < 2*limit; i++ {
		v := h.vector(seed(i))
		if in := slices.Contains(want, seed(i)); (v != nil) != in {
			t.Fatalf("pick%d: found %v, want %v", i, v != nil, in)
		}
		if v != nil {
			vector.PseudoUnit(seed(i), ref)
			if !sameBits(v, ref) {
				t.Fatalf("pick%d: vector differs from vector.PseudoUnit", i)
			}
		}
	}
	h.Release()
	h.Release()
	if got := TokenVectorBytes(); got != b0 {
		t.Errorf("TokenVectorBytes = %d after Release, want %d", got, b0)
	}
	if (&HotCounter{e: e, reads: map[uint64]int32{1: 1}}).HotSet(1) != nil {
		t.Error("a sample with no seed read twice made a hot set")
	}
}
