package search

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"dust/internal/region/regiontest"
)

// TestScansOutliveTheirSearcher runs scans on views whose every other
// reference is dropped — the view is loaded, copied and discarded in the
// expression that scans it — while another goroutine runs the collector in
// a loop, with released regions protected: the methods that scan keep the
// region alive until they return, so no scan faults and every answer is
// the one recorded from a searcher the test holds. The rankings are of
// every table (k = 0), which the scan scores in full like ScoreTables,
// so that each scan is long enough for a collection to finish within it.
func TestScansOutliveTheirSearcher(t *testing.T) {
	if !regiontest.Protect(t) {
		t.Skip("this build maps no region (the race detector's runtime does not see mapped memory): there is no released mapping to fault")
	}
	spec := wideSpec(1500)
	l := spec.Generate()
	held := NewStarmie(l).QueryWorkers(1)
	var data bytes.Buffer
	if err := held.(*Starmie).Save(&data); err != nil {
		t.Fatal(err)
	}
	pqs := wideQueries(held, spec, 4)
	names := l.Names()
	view := func() *Starmie {
		s, err := LoadStarmie(bytes.NewReader(data.Bytes()), l)
		if err != nil {
			panic(err)
		}
		return s.QueryWorkers(1).(*Starmie)
	}
	ctx := context.Background()
	want, wantScores := make([][]Scored, len(pqs)), make([][]Scored, len(pqs))
	for i, pq := range pqs {
		want[i], _ = held.TopKPrepared(ctx, pq, 0)
		wantScores[i], _ = held.ScoreTables(pq, names)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for r := 0; r < rounds; r++ {
		for i, pq := range pqs {
			got, err := view().TopKPrepared(ctx, pq, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertSameHits(t, "ranking of a dropped view", got, want[i])
			scores, err := view().ScoreTables(pq, names)
			if err != nil {
				t.Fatal(err)
			}
			assertSameHits(t, "scores of a dropped view", scores, wantScores[i])
		}
	}
}
