// Package minhash implements MinHash signatures. The D3L baseline (paper
// §6.5.1) measures column unionability partly by value overlap; like the
// original D3L and the JOSIE / LSH-Ensemble line of work it builds on, the
// reproduction estimates Jaccard similarity between column value sets with
// MinHash. The baseline ranks by an exact scan over every lake table, so no
// banding index shortlists candidates.
package minhash

import "math"

// Signature is a MinHash sketch of a set.
type Signature []uint64

// Hasher produces MinHash signatures of a fixed length. The k hash
// functions are simulated with one strong 64-bit hash and k seed mixes.
type Hasher struct {
	k     int
	seeds []uint64
}

// NewHasher creates a Hasher with k hash functions (k >= 1).
func NewHasher(k int) *Hasher {
	if k < 1 {
		k = 1
	}
	h := &Hasher{k: k, seeds: make([]uint64, k)}
	state := uint64(0x5d15_ce55)
	for i := range h.seeds {
		state = state*6364136223846793005 + 1442695040888963407
		h.seeds[i] = state
	}
	return h
}

// Sign computes the MinHash signature of the given set of string values.
// An empty set yields a signature of all MaxUint64.
func (h *Hasher) Sign(values []string) Signature {
	sig := make(Signature, h.k)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for _, v := range values {
		base := fnv64(v)
		for i, seed := range h.seeds {
			hv := mix(base ^ seed)
			if hv < sig[i] {
				sig[i] = hv
			}
		}
	}
	return sig
}

// Estimate returns the estimated Jaccard similarity of the sets behind two
// signatures (fraction of agreeing positions).
func Estimate(a, b Signature) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// ExactJaccard computes the true Jaccard similarity of two string sets,
// used as ground truth in tests and in the small-lake D3L scorer.
func ExactJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	set := make(map[string]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	inter := 0
	seen := make(map[string]bool, len(b))
	for _, v := range b {
		if seen[v] {
			continue
		}
		seen[v] = true
		if set[v] {
			inter++
		}
	}
	union := len(set) + len(seen) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// fnv64 hashes s with FNV-1a.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix finalizes a 64-bit hash (splitmix64 finalizer).
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
