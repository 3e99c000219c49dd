package search

import (
	"context"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty context yielded a trace")
	}
	tr := &Trace{}
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
	// A nil trace masks an outer one.
	if TraceFrom(WithTrace(ctx, nil)) != nil {
		t.Fatal("nil trace did not mask the outer trace")
	}
}

func TestTraceAddHelpers(t *testing.T) {
	// All Add helpers are nil-safe: untraced queries pay nothing.
	var nilTr *Trace
	nilTr.AddEncode(time.Now())
	nilTr.AddRetrieve(time.Now())
	nilTr.AddScore(time.Now())
	nilTr.AddAlign(time.Now())
	nilTr.AddDiversify(time.Now())

	tr := &Trace{}
	start := time.Now().Add(-time.Millisecond)
	tr.AddEncode(start)
	tr.AddRetrieve(start)
	tr.AddScore(start)
	tr.AddAlign(start)
	tr.AddDiversify(start)
	for name, got := range map[string]int64{
		"encode":    tr.EncodeNS.Load(),
		"retrieve":  tr.RetrieveNS.Load(),
		"score":     tr.ScoreNS.Load(),
		"align":     tr.AlignNS.Load(),
		"diversify": tr.DiversifyNS.Load(),
	} {
		if got < time.Millisecond.Nanoseconds() {
			t.Fatalf("%s stage recorded %dns, want >= 1ms", name, got)
		}
	}
	// Adds accumulate rather than overwrite.
	before := tr.EncodeNS.Load()
	tr.AddEncode(time.Now().Add(-time.Millisecond))
	if tr.EncodeNS.Load() <= before {
		t.Fatal("second AddEncode did not accumulate")
	}
}

func TestTracePopulatedByStagedSearch(t *testing.T) {
	b := persistBench(t)
	s := NewStarmie(b.Lake)
	tr := &Trace{}
	if _, err := TopKCtx(WithTrace(context.Background(), tr), s, b.Queries[0], 3); err != nil {
		t.Fatal(err)
	}
	if tr.EncodeNS.Load() <= 0 {
		t.Fatal("staged search recorded no encode time")
	}
	if tr.RetrieveNS.Load() <= 0 {
		t.Fatal("staged search recorded no retrieve time")
	}
	if tr.ScoreNS.Load() <= 0 {
		t.Fatal("staged search recorded no score time")
	}
}
