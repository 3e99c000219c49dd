package dust

import (
	"testing"

	"dust/internal/datagen"
	"dust/internal/embed"
)

// TestTokenVectorHitShare pins the sizing claim of embed's token-vector tables
// (docs/ARCHITECTURE.md, "The encode kernel") so that it cannot rot: over 20
// different queries of a 120x40 LakeSpec lake, each searched once — so nothing
// is a replay of an earlier request — most of the token vectors a search
// needs are read back, not derived. The big table outlives requests (and
// tests), so the 20 measured queries follow 20 others that bring it to the
// steady state of a server on this lake, whatever ran before in the process.
// Measured 0.855, against 0.688 for one 512-slot direct-mapped table per
// processor; the floor leaves room for a change of generator, not for a
// table that stopped being kept.
func TestTokenVectorHitShare(t *testing.T) {
	spec := datagen.LakeSpec{Seed: 7, Tables: 120, Rows: 40}
	p := New(spec.Generate(), WithWorkers(1))
	// A generated query may align with nothing (422 when served); the
	// vectors it read still count.
	for i := 0; i < 20; i++ {
		_, _ = p.Search(spec.Query(i), 10)
	}
	h0, m0 := embed.TokenVectorStats()
	for i := 20; i < 40; i++ {
		_, _ = p.Search(spec.Query(i), 10)
	}
	h1, m1 := embed.TokenVectorStats()
	hits, misses := h1-h0, m1-m0
	share := float64(hits) / float64(hits+misses)
	t.Logf("%d hits, %d misses: hit share %.3f", hits, misses, share)
	if hits+misses < 100000 {
		t.Fatalf("only %d token vectors read by 20 searches; the set-up no longer exercises the kernel", hits+misses)
	}
	if share < 0.75 {
		t.Errorf("hit share %.3f, want >= 0.75", share)
	}
}
