package serve

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"dust/internal/table"
)

// DefaultMaintenanceThreshold is the graph tombstone fraction past which the
// background maintainer compacts the index (see WithMaintenance). A
// quarter of the structure being tombstones roughly doubles per-query
// graph traversal cost relative to a clean build, which is where paying
// one background rebuild starts winning.
const DefaultMaintenanceThreshold = 0.25

// cheapCostNS is the estimated-cost floor for degradation: searches
// predicted to finish under this budget are admitted exactly even when
// the server is overloaded — degrading them frees no meaningful capacity
// and only costs result quality.
const cheapCostNS = float64(time.Millisecond)

// admissionWindow is the size of the recent-admission-wait ring consulted
// by the overload check.
const admissionWindow = 256

// admissionRing is a lock-free ring of recent admission-wait durations.
// Reads race with writes by design: the p99 is an overload signal, not an
// account, and an occasionally torn window costs nothing.
type admissionRing struct {
	n       atomic.Uint64
	samples [admissionWindow]atomic.Int64
}

func (a *admissionRing) observe(d time.Duration) {
	i := a.n.Add(1) - 1
	a.samples[i%admissionWindow].Store(int64(d))
}

// p99 returns the 99th-percentile wait over the recorded window, or 0
// before any admission completed.
func (a *admissionRing) p99() time.Duration {
	n := a.n.Load()
	if n == 0 {
		return 0
	}
	if n > admissionWindow {
		n = admissionWindow
	}
	buf := make([]int64, n)
	for i := range buf {
		buf[i] = a.samples[i].Load()
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return time.Duration(buf[(len(buf)-1)*99/100])
}

// overloaded reports the current load factor and whether the degrade
// policy considers the server overloaded: the in-flight ratio (executing
// plus waiting searches over the admission bound) at or past the
// configured threshold, or the recent admission-wait p99 past a tenth of
// the per-request timeout. Always false when the policy is disabled.
func (s *Server) overloaded() (float64, bool) {
	if s.degradeThreshold <= 0 {
		return 0, false
	}
	load := float64(len(s.sem)+int(s.waiting.Load())) / float64(cap(s.sem))
	if load >= s.degradeThreshold {
		return load, true
	}
	if s.timeout > 0 && s.waits.p99() > s.timeout/10 {
		return load, true
	}
	return load, false
}

// costUnits estimates a search's cost before it runs, in scoring units:
// query tuple count times the number of lake tables scored against. The
// per-unit wall time learned by observeCost absorbs everything the shape
// ignores (column widths, shard fan-out, encoder cost).
func costUnits(query *table.Table, snap *Snapshot) float64 {
	rows := query.NumRows()
	if rows < 1 {
		rows = 1
	}
	tables := snap.master.Lake().Len()
	if tables < 1 {
		tables = 1
	}
	return float64(rows) * float64(tables)
}

// observeCost folds one completed exact search into the per-unit cost
// EWMA (alpha 0.2, CAS loop over the float bits).
func (s *Server) observeCost(units float64, d time.Duration) {
	if units <= 0 || d <= 0 {
		return
	}
	per := float64(d.Nanoseconds()) / units
	for {
		old := s.costNS.Load()
		next := per
		if cur := math.Float64frombits(old); cur > 0 {
			const alpha = 0.2
			next = cur*(1-alpha) + per*alpha
		}
		if s.costNS.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// estCostNS returns the estimated nanoseconds units of work will take, or
// 0 before any exact search has been observed.
func (s *Server) estCostNS(units float64) float64 {
	return math.Float64frombits(s.costNS.Load()) * units
}

// cheap reports whether a search's estimated cost is below the
// degradation floor. Unknown cost (no observations yet) is not cheap:
// the first requests under overload degrade rather than pile up.
func (s *Server) cheap(units float64) bool {
	est := s.estCostNS(units)
	return est > 0 && est < cheapCostNS
}

// retryAfterSeconds estimates when a shed client should retry: the
// current backlog (executing + waiting + this request) drained at the
// observed per-search cost across the admission width, clamped to
// [1, 60] seconds. With no cost observed yet, one search is assumed to
// take a second.
func (s *Server) retryAfterSeconds(units float64) int {
	est := s.estCostNS(units)
	if est <= 0 {
		est = float64(time.Second)
	}
	backlog := float64(len(s.sem) + int(s.waiting.Load()) + 1)
	secs := math.Ceil(est * backlog / float64(cap(s.sem)) / float64(time.Second))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return int(secs)
}

// maintenanceLoop drives maintain on the configured interval until Close.
func (s *Server) maintenanceLoop() {
	t := time.NewTicker(s.maintInterval)
	defer t.Stop()
	for {
		select {
		case <-s.maintStop:
			return
		case <-t.C:
			s.maintain()
		}
	}
}

// maintain runs one maintenance pass: when the published snapshot's graph
// tombstone fraction is at or past the threshold, compact a clone of the
// master off the query path and swap it in. Masters are immutable once
// published, so the clone+compact runs without the mutation lock —
// holding s.mu across a compaction would stall every mutation, the exact
// latency this loop exists to remove. The swap itself takes the lock and
// is abandoned if a mutation published a newer snapshot meanwhile (its
// tombstone debt differs; the next tick re-checks). Compaction preserves
// result identity and the epoch, so cache entries keyed by (tag, epoch)
// stay valid and queries racing the swap return bit-identical results.
// Reports whether a swap happened.
func (s *Server) maintain() bool {
	cur := s.snap.Load()
	if cur.master.MaintenanceStats().GraphDeletedFraction < s.maintThreshold {
		return false
	}
	clone := cur.master.Clone()
	if !clone.Compact() {
		return false
	}
	next := newSnapshot(clone, s.queryWorkers)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap.Load() != cur {
		return false
	}
	s.snap.Store(next)
	s.maintRuns.Add(1)
	return true
}
