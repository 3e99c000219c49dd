// Package serve turns a dust.Pipeline into a long-running, concurrently
// mutable HTTP search service. Its core is snapshot swapping: the live
// pipeline sits behind an atomic pointer, every request loads the pointer
// once and runs entirely against that frozen state, and a mutation builds
// the pipeline's successor (dust.Pipeline.WithTable/WithoutTable), which
// shares what the mutation leaves and writes nothing of its predecessor,
// and swaps it in atomically. Readers therefore never take a lock and never
// observe a half-applied mutation; a query that started before a swap
// finishes on the snapshot it started with.
//
// On top of the snapshot sit an LRU result cache keyed by (query
// fingerprint, k, pipeline config) — an entry from an epoch before the
// snapshot's is served only once the snapshot's mutation log shows it
// still stands (dust.Pipeline.Revalidate) — and request admission: a
// bounded in-flight semaphore plus per-request timeouts threaded through
// context.Context into Pipeline.SearchContext. Under overload a request is
// answered by the pipeline's degraded view, which retrieves half the
// tables, or shed.
package serve

import (
	"slices"

	"dust"
)

// Snapshot is one immutable published state of the serving pipeline. The
// master pipeline is the state the next mutation builds a successor of;
// the query view shares its index but bounds per-query parallelism so
// concurrent requests do not multiply fan-out. The snapshot also carries a degraded
// view — the same frozen index retrieving half the tables
// (dust.Pipeline.Degraded) — that degraded admission routes to under load,
// unless the pipeline already retrieves a single table. With the cache on,
// it carries the log of the last mutations too. All views are frozen:
// nothing mutates a Snapshot after it is published.
type Snapshot struct {
	master      *dust.Pipeline
	query       *dust.Pipeline
	tag         string
	degraded    *dust.Pipeline // nil when the pipeline has nothing cheaper
	degradedTag string
	// log holds the last mutations, oldest first, the last one the
	// mutation that made this epoch: mutation i took epoch
	// Epoch()-len(log)+i to the next. At most logLen are kept.
	log []mutation
}

// logLen bounds a snapshot's mutation log. A cached answer more than
// logLen mutations old is recomputed, not revalidated: a revalidation
// costs one score per table added since, and an answer that old has
// mostly been recomputed or evicted anyway.
const logLen = 64

// mutation is one applied PUT (put) or DELETE of the named table.
type mutation struct {
	name string
	put  bool
}

// logged returns log with m appended, its oldest mutations dropped to
// keep logLen; it never writes into log's array, which a published
// snapshot may hold.
func logged(log []mutation, m mutation) []mutation {
	log = log[max(0, len(log)-logLen+1):]
	return append(slices.Clip(log), m)
}

// since returns the tables removed and added after epoch, up to the
// snapshot's, and false when the log does not reach back that far.
func (s *Snapshot) since(epoch uint64) (removed, added []string, ok bool) {
	n := s.Epoch() - epoch
	if n > uint64(len(s.log)) {
		return nil, nil, false
	}
	for _, m := range s.log[len(s.log)-int(n):] {
		if m.put {
			added = append(added, m.name)
		} else {
			removed = append(removed, m.name)
		}
	}
	return removed, added, true
}

// newSnapshot publishes p behind a query view bounded to queryWorkers,
// plus a degraded view when it differs from p: ConfigTag carries the table
// count, so an equal tag means p already retrieves one table.
func newSnapshot(p *dust.Pipeline, queryWorkers int) *Snapshot {
	s := &Snapshot{master: p, query: p.QueryBound(queryWorkers), tag: p.ConfigTag()}
	if view := p.Degraded(); view.ConfigTag() != s.tag {
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
