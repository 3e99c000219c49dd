package search

import (
	"context"
	"testing"
	"time"
)

// TestTraceAddHelpers: Add is nil-safe — untraced queries pay nothing —
// and accumulates per stage without touching the others.
func TestTraceAddHelpers(t *testing.T) {
	var nilTr *Trace
	tr := &Trace{}
	for st := range NumStages {
		nilTr.Add(st, time.Millisecond)
		tr.Add(st, time.Millisecond)
		tr.Add(st, time.Duration(st))
		for other := range NumStages {
			want := time.Duration(0)
			if other <= st {
				want = time.Millisecond + time.Duration(other)
			}
			if got := time.Duration(tr.NS[other].Load()); got != want {
				t.Fatalf("after adding to %s, %s holds %v, want %v", st, other, got, want)
			}
		}
	}
}

// TestTracePopulatedByStagedSearch: a traced query counts every candidate
// table under one scan exit, and records no stage time — the pipeline
// above the searcher times the stages.
func TestTracePopulatedByStagedSearch(t *testing.T) {
	b := persistBench(t)
	s := NewStarmie(b.Lake)
	tr := &Trace{}
	if _, err := s.TopKPrepared(context.Background(), s.Prepare(b.Queries[0]), 3, tr); err != nil {
		t.Fatal(err)
	}
	var scanned int64
	for exit := range tr.Scan {
		scanned += tr.Scan[exit].Load()
	}
	if scanned != int64(b.Lake.Len()) {
		t.Fatalf("scan counted %d candidate tables, the lake holds %d", scanned, b.Lake.Len())
	}
	for st := range NumStages {
		if ns := tr.NS[st].Load(); ns != 0 {
			t.Fatalf("the searcher recorded %dns under %s", ns, st)
		}
	}
}
