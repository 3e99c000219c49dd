package embed

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dust/internal/vector"
)

// referenceHashString and referenceJoinTokens are the hashing of the kernel
// before the token-vector table: one FNV-1a pass over a concatenated string.
func referenceHashString(s string, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ (seed * 0x9e3779b97f4a7c15)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func referenceJoinTokens(tokens []string) string {
	var b []byte
	for _, t := range tokens {
		b = append(b, t...)
		b = append(b, 0x1f)
	}
	return string(b)
}

// referenceEncodeTokens is EncodeTokens as it was before the token-vector
// table: every vector derived where it is used, every seed hashed from a
// concatenated string, every intermediate freshly allocated. The table must
// never change a bit of it.
func referenceEncodeTokens(e *Encoder, tokens []string) vector.Vec {
	content := make(vector.Vec, e.dim)
	if len(tokens) > 0 {
		tok := make(vector.Vec, e.dim)
		isColHeader := func(t string) bool {
			return len(t) > 2 && t[0] == 'H' && t[1] == ':'
		}
		for i, t := range tokens {
			vector.PseudoUnit(referenceHashString(t, e.seed), tok)
			vector.AddScaled(content, tok, 1)
			if cls, ok := classOf(t); ok {
				w := 0.5
				switch {
				case isColHeader(t):
					w = 4.0
				case len(t) > 2 && t[0] == 'h' && t[1] == ':':
					w = 1.2
				}
				vector.PseudoUnit(referenceHashString("class:"+cls, e.seed), tok)
				vector.AddScaled(content, tok, w)
			}
			if e.contextual && i+1 < len(tokens) && !isColHeader(t) && !isColHeader(tokens[i+1]) {
				vector.PseudoUnit(referenceHashString(tokens[i]+"\x00"+tokens[i+1], e.seed), tok)
				vector.AddScaled(content, tok, 0.5)
			}
		}
		content = vector.Normalize(content)
	}
	out := make(vector.Vec, e.dim)
	contentScale := 1 - e.anisotropy
	vector.AddScaled(out, content, contentScale*(1-e.noise))
	vector.AddScaled(out, e.common, e.anisotropy)
	if e.noise > 0 {
		noise := make(vector.Vec, e.dim)
		vector.PseudoUnit(referenceHashString(referenceJoinTokens(tokens), e.seed^0xA0A0), noise)
		vector.AddScaled(out, noise, contentScale*e.noise)
	}
	return vector.Normalize(out)
}

// eachKernel runs f under the encode kernel's selected body and, when that
// is not the generic one, again with the generic body forced.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	t.Run(vector.CosineKernel(), f)
	if vector.CosineKernel() == "generic" {
		return
	}
	defer vector.ForceGenericKernel()()
	t.Run(vector.CosineKernel(), f)
}

var simulators = []func(...Option) *Encoder{NewFastText, NewGlove, NewBERT, NewRoBERTa, NewSBERT}

// randomStream draws a token stream of the given length from a vocabulary
// several times the size of a table (so slots are evicted and refilled), with
// tagged headers, synonym-class words and immediate repeats mixed in.
func randomStream(rng *rand.Rand, n int) []string {
	classed := []string{"city", "town", "supervisor", "name", "year", "description"}
	out := make([]string, 0, n)
	for len(out) < n {
		var tok string
		switch r := rng.Intn(20); {
		case r == 0:
			tok = "H:" + classed[rng.Intn(len(classed))]
		case r == 1:
			tok = "h:" + classed[rng.Intn(len(classed))]
		case r == 2:
			tok = fmt.Sprintf("H:col%d", rng.Intn(30))
		case r == 3:
			tok = classed[rng.Intn(len(classed))]
		case r == 4 && len(out) > 0:
			tok = out[len(out)-1]
		case r < 12:
			tok = fmt.Sprintf("hot%d", rng.Intn(40))
		default:
			tok = fmt.Sprintf("w%d", rng.Intn(5000))
		}
		out = append(out, tok)
	}
	return out
}

func sameBits(a, b vector.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEncodeTokensMatchesReference is the table's exactness gate: the bits of
// the old kernel on random streams, for every simulator (and the two option
// shapes the pipeline uses), with the dimension changing from call to call so
// that tables change hands between dimensions inside one process.
func TestEncodeTokensMatchesReference(t *testing.T) { eachKernel(t, testEncodeTokensMatchesReference) }

func testEncodeTokensMatchesReference(t *testing.T) {
	dims := []int{1, 64, 128, 768}
	var encs []*Encoder
	for _, d := range dims {
		for _, mk := range simulators {
			encs = append(encs, mk(WithDim(d)))
		}
		encs = append(encs, NewRoBERTa(WithDim(d), WithAnisotropy(0.05)), NewBERT(WithDim(d), WithNoise(0)))
	}
	rng := rand.New(rand.NewSource(17))
	streams := 4200
	if testing.Short() {
		streams = 600
	}
	for s := 0; s < streams; s++ {
		n := rng.Intn(41)
		switch {
		case s%100 == 0:
			n = 600
		case s%8 == 0:
			n = rng.Intn(601)
		}
		tokens := randomStream(rng, n)
		// Stride through dims and simulators so consecutive calls differ in both.
		e := encs[(s*7+s/len(encs))%len(encs)]
		got, want := e.EncodeTokens(tokens), referenceEncodeTokens(e, tokens)
		if !sameBits(got, want) {
			t.Fatalf("stream %d (%s, dim %d, %d tokens): EncodeTokens differs from the reference", s, e.Name(), e.Dim(), n)
		}
	}
}

// newTokenTable is a table of budget bytes of vectors at dim, owned by no
// call.
func newTokenTable(dim, budget int) *tokenTable {
	t := &tokenTable{}
	t.resize(dim, budget)
	return t
}

// TestTokenVectorSeedZero: an empty slot must not pass for the vector of seed
// 0, in a full table or in the one-slot fallback.
func TestTokenVectorSeedZero(t *testing.T) {
	want := make([]float64, 16)
	vector.PseudoUnit(0, want)
	if vector.Norm(want) == 0 {
		t.Fatal("seed 0 derives the zero vector; the probe proves nothing")
	}
	for _, budget := range []int{0, tokenTableBytes} {
		tv := newTokenTable(16, budget)
		if got := tv.vector(0); !sameBits(got, want) || tv.misses != 1 || tv.hits != 0 {
			t.Errorf("fresh table of %d slots: vector(0) = %v (hits %d, misses %d), want a miss deriving %v", len(tv.seeds), got, tv.hits, tv.misses, want)
		}
		if got := tv.vector(0); !sameBits(got, want) || tv.hits != 1 {
			t.Errorf("table of %d slots: second vector(0) = %v (hits %d), want a hit", len(tv.seeds), got, tv.hits)
		}
	}
}

// TestTokenVectorLRU: ways+1 seeds that share a set, read in a fixed order.
// Each miss must re-derive into the slot of the least recently read seed, so
// the sequence's hits and misses are fixed, and every vector returned is
// vector.PseudoUnit's bit for bit.
func TestTokenVectorLRU(t *testing.T) { eachKernel(t, testTokenVectorLRU) }

func testTokenVectorLRU(t *testing.T) {
	const dim = 16
	tv := newTokenTable(dim, tokenTableBytes)
	if tv.ways != tokenTableWays || tv.sets < 2 {
		t.Fatalf("table of %d sets x %d ways; want several sets of %d", tv.sets, tv.ways, tokenTableWays)
	}
	seed := func(j int) uint64 { return 0x5eed + uint64(j*tv.sets) } // all in set 0x5eed mod sets
	steps := []struct {
		j   int
		hit bool
	}{
		{0, false}, {1, false}, {2, false}, {3, false}, // fill the set
		{0, true},                                  // 1 is now the least recently read
		{4, false},                                 // evicts 1
		{0, true}, {2, true}, {3, true}, {4, true}, // 1 is gone, the rest stay
		{1, false}, // evicts 0, read longest ago
		{2, true}, {3, true}, {4, true}, {1, true},
		{0, false},
	}
	want := make([]float64, dim)
	var hits, misses uint64
	for i, st := range steps {
		if st.hit {
			hits++
		} else {
			misses++
		}
		got := tv.vector(seed(st.j))
		vector.PseudoUnit(seed(st.j), want)
		if !sameBits(got, want) {
			t.Fatalf("step %d, seed %d: vector differs from vector.PseudoUnit", i, st.j)
		}
		if tv.hits != hits || tv.misses != misses {
			t.Fatalf("step %d, seed %d: %d hits and %d misses so far, want %d and %d (hit %v)", i, st.j, tv.hits, tv.misses, hits, misses, st.hit)
		}
	}
}

// TestEncodeTokensKeepsBigTable: a call hands the big table back, so a second
// call on the same stream reads every token vector and derives only its noise
// vector. The stream has more distinct tokens than a spare table has slots,
// and no more than a set's ways land in one set of the big table.
func TestEncodeTokensKeepsBigTable(t *testing.T) { eachKernel(t, testEncodeTokensKeepsBigTable) }

func testEncodeTokensKeepsBigTable(t *testing.T) {
	e := NewFastText() // not contextual, no class words below: one vector a token
	probe := newTokenTable(e.dim, bigTokenTableBytes)
	spare := newTokenTable(e.dim, tokenTableBytes)
	inSet := make([]int, probe.sets)
	var tokens []string
	for i := 0; len(tokens) < len(spare.seeds)+len(spare.seeds)/4; i++ {
		tok := fmt.Sprintf("keep%d", i)
		s := int(hashAdd(hashSeed(e.seed), tok)) & (probe.sets - 1)
		if inSet[s] < probe.ways {
			inSet[s]++
			tokens = append(tokens, tok)
		}
	}
	want := referenceEncodeTokens(e, tokens)
	e.EncodeTokens(tokens)
	h0, m0 := TokenVectorStats()
	got := e.EncodeTokens(tokens)
	h1, m1 := TokenVectorStats()
	if !sameBits(got, want) {
		t.Fatal("EncodeTokens differs from the reference")
	}
	if h1-h0 != uint64(len(tokens)) || m1-m0 != 1 {
		t.Errorf("second call on %d tokens: %d hits, %d misses, want %d and 1 (the noise vector)", len(tokens), h1-h0, m1-m0, len(tokens))
	}
}

// TestEncodeTokensResultsDoNotAlias: a returned vector shares nothing with a
// slot or the scratch, so no later call can change it.
func TestEncodeTokensResultsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	encs := []*Encoder{NewRoBERTa(), NewFastText(WithDim(64))}
	type kept struct{ got, snapshot vector.Vec }
	var early []kept
	for i := 0; i < 40; i++ {
		v := encs[i%2].EncodeTokens(randomStream(rng, rng.Intn(60)))
		early = append(early, kept{v, vector.Clone(v)})
	}
	for i := 0; i < 10000; i++ {
		encs[i%2].EncodeTokens(randomStream(rng, rng.Intn(12)))
	}
	for i, k := range early {
		if !sameBits(k.got, k.snapshot) {
			t.Fatalf("vector %d changed after later calls", i)
		}
	}
}

// TestEncodeTokensConcurrent: at least twice as many goroutines as tables, so
// calls find the big table taken and take spares or the one-slot fallback, two
// encoders of different dimensions, every answer equal to the sequential one
// (run under -race in CI).
func TestEncodeTokensConcurrent(t *testing.T) { eachKernel(t, testEncodeTokensConcurrent) }

func testEncodeTokensConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	encs := []*Encoder{NewRoBERTa(), NewSBERT(WithDim(64))}
	streams := make([][]string, 300)
	want := make([][2]vector.Vec, len(streams))
	for i := range streams {
		streams[i] = randomStream(rng, rng.Intn(80))
		for j, e := range encs {
			want[i][j] = e.EncodeTokens(streams[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < max(8, 2*maxTokenTables); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range streams {
				i := (k + g*37) % len(streams)
				for j, e := range encs {
					if got := e.EncodeTokens(streams[i]); !sameBits(got, want[i][j]) {
						t.Errorf("goroutine %d, stream %d, %s: differs from the sequential answer", g, i, e.Name())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTokenVectorStatsAndInstrument: Instrument counts calls, whatever the
// table holds; TokenVectorStats counts every vector a call reads, as a hit or
// a miss.
func TestTokenVectorStatsAndInstrument(t *testing.T) {
	eachKernel(t, testTokenVectorStatsAndInstrument)
}

func testTokenVectorStatsAndInstrument(t *testing.T) {
	e := NewFastText() // not contextual: one vector a token, one for the noise
	var calls atomic.Int64
	e.Instrument(&calls)
	tokens := []string{"stats-a", "stats-a", "stats-b", "city"} // "city" adds its class vector
	h0, m0 := TokenVectorStats()
	e.EncodeTokens(tokens)
	h1, m1 := TokenVectorStats()
	e.EncodeTokens(tokens)
	h2, m2 := TokenVectorStats()
	if calls.Load() != 2 {
		t.Errorf("Instrument counted %d calls, want 2", calls.Load())
	}
	const reads = 6
	if got := (h1 - h0) + (m1 - m0); got != reads {
		t.Errorf("first call read %d vectors, want %d", got, reads)
	}
	if h1-h0 < 1 {
		t.Errorf("first call hit %d times, want >= 1 (the repeated token)", h1-h0)
	}
	// The noise vector is seeded by the whole input and never kept.
	if h2-h1 != reads-1 || m2-m1 != 1 {
		t.Errorf("replayed call: %d hits, %d misses, want %d and 1", h2-h1, m2-m1, reads-1)
	}
}
