package serve

import "dust/internal/search"

// overloaded reports the current load factor — executing plus waiting
// searches over the admission bound — and whether it has reached the
// degrade threshold. Always false when the policy is disabled.
func (s *Server) overloaded() (float64, bool) {
	if s.degradeThreshold <= 0 {
		return 0, false
	}
	load := float64(len(s.sem)+int(s.waiting.Load())) / float64(cap(s.sem))
	return load, load >= s.degradeThreshold
}

// overCompactThreshold reports whether snap's graphs are more than
// search.RebuildThreshold tombstones: the one rule a mutation would rebuild
// inline by, which the server applies off the request path instead.
func overCompactThreshold(snap *Snapshot) bool {
	return snap.master.MaintenanceStats().GraphDeletedFraction > search.RebuildThreshold
}

// compactLoop is the background compaction pass mutate starts. Each round
// clones the published master and compacts the clone without the mutation
// lock — holding s.mu across a rebuild would stall every later mutation,
// the exact latency this pass exists to remove — then takes the lock and
// swaps the clone in only if no mutation published meanwhile. Compaction
// preserves result identity and the epoch, so cache entries keyed by
// (tag, epoch) stay valid and queries racing the swap return bit-identical
// bodies. A round that lost the race repeats while the published snapshot
// is still over the threshold, so no debt outlives the last mutation.
func (s *Server) compactLoop() {
	defer s.passes.Done()
	for {
		cur := s.snap.Load()
		clone := cur.master.Clone()
		clone.Compact()
		next := newSnapshot(clone, s.queryWorkers)
		s.mu.Lock()
		if s.snap.Load() == cur {
			s.snap.Store(next)
			s.compactions.Add(1)
		}
		s.compacting = overCompactThreshold(s.snap.Load())
		again := s.compacting
		s.mu.Unlock()
		if !again {
			return
		}
	}
}
