// Package embed provides the embedding substrate of the reproduction. The
// paper relies on pre-trained language models (BERT, RoBERTa, sBERT) and
// word-embedding models (FastText, GloVe); none are available offline in
// pure Go, so this package implements deterministic feature-hashed
// simulators that preserve the properties the paper's experiments depend on:
//
//   - Token-content geometry: texts that share tokens embed close together,
//     texts from different vocabularies embed far apart.
//   - Anisotropy: the language-model simulators mix in a large shared
//     component, so raw cosine similarity between ANY two embeddings is
//     high. This is the well-documented property of untuned transformer
//     embeddings that makes the paper's pre-trained baselines perform at
//     coin-toss accuracy on tuple unionability (Fig. 6) while remaining
//     usable for euclidean-distance clustering (Table 1).
//   - Instance noise: a deterministic pseudo-random component seeded by the
//     exact input, modelling encoder instability. Model quality differences
//     in Table 1 (RoBERTa > sBERT > BERT) come from this knob.
//
// All randomness is hash-derived, so every embedding is a pure function of
// (model, input) and experiments are reproducible.
package embed

// hashSeed starts a 64-bit FNV-1a hash mixed with seed, and hashAdd continues
// one through s. The hash is streaming: hashAdd(hashAdd(h, a), b) is the hash
// of a+b, so a seed over a concatenation is built without concatenating.
func hashSeed(seed uint64) uint64 {
	const offset = 14695981039346656037
	return offset ^ (seed * 0x9e3779b97f4a7c15)
}

func hashAdd(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
