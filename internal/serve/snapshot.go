// Package serve turns a dust.Pipeline into a long-running, concurrently
// mutable HTTP search service. Its core is snapshot swapping: the live
// pipeline sits behind an atomic pointer, every request loads the pointer
// once and runs entirely against that frozen state, and mutations
// (AddTable/RemoveTable) are applied to a copy-on-write clone that is
// swapped in atomically. Readers therefore never take a lock and never
// observe a half-applied mutation; a query that started before a swap
// finishes on the snapshot it started with.
//
// On top of the snapshot sit an LRU result cache keyed by (query
// fingerprint, k, pipeline config, index epoch) — invalidated wholesale by
// the epoch bump a swap implies — and request admission: a bounded
// in-flight semaphore plus per-request timeouts threaded through
// context.Context into Pipeline.SearchContext. Graph compaction never runs
// inside a request: a mutation that leaves the graphs more than
// search.RebuildThreshold tombstones starts a background pass that
// compacts a clone and swaps it in.
package serve

import (
	"dust"
	"dust/internal/search"
)

// Snapshot is one immutable published state of the serving pipeline. The
// master pipeline is the state the next mutation clones from; the query
// view shares its index but bounds per-query parallelism so concurrent
// requests do not multiply fan-out. When the pipeline can answer in ANN
// mode distinct from its configured mode, the snapshot also carries a
// degraded view — the same frozen index behind an approximate retrieval
// stage — that degraded admission routes to under load. All views are
// frozen: nothing mutates a Snapshot after it is published.
type Snapshot struct {
	master      *dust.Pipeline
	query       *dust.Pipeline
	tag         string
	degraded    *dust.Pipeline // nil when no distinct ANN view exists
	degradedTag string
}

// newSnapshot freezes p (which must not be mutated afterwards except by
// cloning) behind a query view bounded to queryWorkers, plus a degraded
// ANN view when the pipeline offers one and is not already in ANN mode.
func newSnapshot(p *dust.Pipeline, queryWorkers int) *Snapshot {
	s := &Snapshot{master: p, query: p.QueryBound(queryWorkers), tag: p.ConfigTag()}
	if view, ok := p.ModeView(search.ANN); ok && view.ConfigTag() != s.tag {
		s.degraded = view.QueryBound(queryWorkers)
		s.degradedTag = view.ConfigTag()
	}
	return s
}

// Epoch returns the index mutation epoch of this snapshot.
func (s *Snapshot) Epoch() uint64 { return s.master.Epoch() }

// Pipeline returns the snapshot's master pipeline. Callers must treat it as
// read-only.
func (s *Snapshot) Pipeline() *dust.Pipeline { return s.master }
