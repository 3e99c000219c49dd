package embed

import (
	"sync/atomic"

	"dust/internal/vector"
)

// DefaultDim is the embedding dimension used when no override is given. The
// paper's models emit 768-d vectors; the default here is smaller so the full
// experiment suite runs quickly on a laptop. Experiments that specifically
// reproduce the "768-dimensional" framing (Fig. 2) pass WithDim(768).
const DefaultDim = 128

// Encoder is a deterministic text encoder simulating one pre-trained model.
// The zero value is not usable; construct with one of the New* functions.
type Encoder struct {
	name       string
	dim        int
	seed       uint64
	anisotropy float64 // fraction of the output taken by the shared component
	noise      float64 // fraction taken by input-seeded instance noise
	contextual bool    // mix neighbouring tokens (language-model style)

	common vector.Vec // the shared anisotropy direction for this model

	calls *atomic.Int64 // optional instrumentation; see Instrument
}

// Option configures an Encoder.
type Option func(*Encoder)

// WithDim overrides the embedding dimension.
func WithDim(d int) Option { return func(e *Encoder) { e.dim = d } }

// WithAnisotropy overrides the shared-component weight in [0, 1).
func WithAnisotropy(a float64) Option { return func(e *Encoder) { e.anisotropy = a } }

// WithNoise overrides the instance-noise weight in [0, 1).
func WithNoise(n float64) Option { return func(e *Encoder) { e.noise = n } }

func newEncoder(name string, seed uint64, anisotropy, noise float64, contextual bool, opts []Option) *Encoder {
	e := &Encoder{
		name:       name,
		dim:        DefaultDim,
		seed:       seed,
		anisotropy: anisotropy,
		noise:      noise,
		contextual: contextual,
	}
	for _, o := range opts {
		o(e)
	}
	e.common = make(vector.Vec, e.dim)
	vector.PseudoUnit(hashAdd(hashSeed(seed), "::common::"+name), e.common)
	return e
}

// NewFastText returns the FastText word-model simulator: pure token-content
// geometry, no anisotropy, no context.
func NewFastText(opts ...Option) *Encoder {
	return newEncoder("fasttext", 0xF457, 0, 0.08, false, opts)
}

// NewGlove returns the GloVe word-model simulator.
func NewGlove(opts ...Option) *Encoder {
	return newEncoder("glove", 0x610E, 0, 0.10, false, opts)
}

// NewBERT returns the BERT simulator: strongly anisotropic (the property
// that puts pre-trained BERT at coin-toss unionability accuracy in Fig. 6)
// and the noisiest of the three LM simulators (it is the smallest model,
// per the paper's Table 1 discussion).
func NewBERT(opts ...Option) *Encoder {
	return newEncoder("bert", 0xBE47, 0.97, 0.16, true, opts)
}

// NewRoBERTa returns the RoBERTa simulator: anisotropic like BERT but with
// the cleanest content geometry (best column alignment in Table 1).
func NewRoBERTa(opts ...Option) *Encoder {
	return newEncoder("roberta", 0x40BE, 0.96, 0.04, true, opts)
}

// NewSBERT returns the Sentence-BERT simulator: much less anisotropic
// (sBERT is tuned for sentence similarity) but with slightly noisier
// content geometry than RoBERTa. The lower anisotropy gives it a little
// genuine unionability signal at the paper's 0.7 distance threshold
// (Fig. 6 reports 0.56 vs the 0.50 coin toss of BERT/RoBERTa).
func NewSBERT(opts ...Option) *Encoder {
	return newEncoder("sbert", 0x5BE4, 0.42, 0.06, true, opts)
}

// Name returns the model name.
func (e *Encoder) Name() string { return e.name }

// Dim returns the embedding dimension.
func (e *Encoder) Dim() int { return e.dim }

// Instrument attaches an encoding-call counter: every subsequent
// EncodeTokens call atomically increments c. Pass nil to detach. The
// prepared-query tests use this to prove a sharded query is encoded exactly
// once, not once per shard. Instrument is not synchronized with concurrent
// EncodeTokens calls — attach before querying starts.
func (e *Encoder) Instrument(c *atomic.Int64) { e.calls = c }

// EncodeTokens embeds a token sequence. The output is L2-normalized. Token
// vectors are read through a tokenTable the call owns from start to end and
// hands back at its return, so each is derived once for as long as it keeps
// its slot, across calls; the result is the only allocation and aliases
// nothing of the table.
func (e *Encoder) EncodeTokens(tokens []string) vector.Vec {
	out := make(vector.Vec, e.dim)
	e.EncodeTokensInto(out, tokens)
	return out
}

// EncodeTokensInto is EncodeTokens writing the embedding over out, which is
// Dim long, instead of allocating it.
func (e *Encoder) EncodeTokensInto(out vector.Vec, tokens []string) {
	if e.calls != nil {
		e.calls.Add(1)
	}
	tv := takeTokenTable(e.dim)
	defer tv.release()

	content := tv.content
	clear(content)
	base := hashSeed(e.seed)
	if len(tokens) > 0 {
		isColHeader := func(t string) bool {
			return len(t) > 2 && t[0] == 'H' && t[1] == ':'
		}
		class := hashAdd(base, "class:")
		for i, t := range tokens {
			h := hashAdd(base, t)
			vector.AddScaled(content, tv.vector(h), 1)
			if cls, ok := classOf(t); ok {
				// Pre-trained lexical semantics: synonym tokens share a
				// class vector (see lexicon.go). Column-context header
				// tokens ("H:") lean on it hard — that is what lets a
				// "Definition" column align with a "Description" column
				// whose value instances are disjoint — while tuple-context
				// headers ("h:") stay value-dominated.
				w := 0.5
				switch {
				case isColHeader(t):
					w = 4.0
				case len(t) > 2 && t[0] == 'h' && t[1] == ':':
					w = 1.2
				}
				vector.AddScaled(content, tv.vector(hashAdd(class, cls)), w)
			}
			if e.contextual && i+1 < len(tokens) && !isColHeader(t) && !isColHeader(tokens[i+1]) {
				// Language-model flavour: bigram context vectors let the
				// encoder distinguish token order and co-occurrence.
				// Column-header tokens stay out of the bigram stream so
				// their repetition does not fabricate context. The seed
				// is the hash of t + "\x00" + next, continued from t's.
				vector.AddScaled(content, tv.vector(hashAdd(hashAdd(h, "\x00"), tokens[i+1])), 0.5)
			}
		}
		vector.NormalizeInPlace(content)
	}

	// The shared component takes the anisotropy fraction; the remainder is
	// split between content and instance noise (noise is relative to the
	// content share so the two knobs are independent).
	clear(out)
	contentScale := 1 - e.anisotropy
	vector.AddScaled(out, content, contentScale*(1-e.noise))
	vector.AddScaled(out, e.common, e.anisotropy)
	if e.noise > 0 {
		// Seeded by the whole input: every token followed by 0x1f.
		h := hashSeed(e.seed ^ 0xA0A0)
		for _, t := range tokens {
			h = hashAdd(hashAdd(h, t), "\x1f")
		}
		// The vector can never be read again, so it is derived into the
		// accumulator (content is dead by now), not into a table slot where
		// it would evict a token vector; it still counts as derived.
		vector.PseudoUnit(h, content)
		tv.misses++
		vector.AddScaled(out, content, contentScale*e.noise)
	}
	vector.NormalizeInPlace(out)
}
