package dust

import (
	"context"
	"errors"
	"reflect"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"dust/internal/embed"
	"dust/internal/region"
	"dust/internal/region/regiontest"
	"dust/internal/search"
	"dust/internal/vector"
)

// cancellingEncoder is the pipeline's default tuple encoder on the
// in-place path, cancelling its search once it has encoded `after` rows of
// a pool (the query's rows take the embedded encoder's own batch path and
// are not counted).
type cancellingEncoder struct {
	*embed.Encoder
	cancel context.CancelFunc
	after  int64
	rows   atomic.Int64
}

func (c *cancellingEncoder) EncodeTupleRows(ctx context.Context, headers []string, rows [][]string, workers int, dst []float64) error {
	return embed.NewTupleSchema(headers).EncodeRows(ctx, rows, workers, dst, func(out vector.Vec, tokens []string) {
		if c.rows.Add(1) == c.after {
			c.cancel()
		}
		c.Encoder.EncodeTokensInto(out, tokens)
	})
}

// TestScratchCancelledEncodeReturnsRegion: a search cancelled in the middle
// of its pool's tuple encode fails with the cancellation and gives the
// region it was encoding into back to the free list — with the collector
// off, so that no finalizer can do it instead.
func TestScratchCancelledEncodeReturnsRegion(t *testing.T) {
	b, q := benchLake(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	enc := &cancellingEncoder{Encoder: embed.NewRoBERTa(embed.WithAnisotropy(0.05)), after: 20}
	p := New(b.Lake, WithTopTables(5), WithTupleEncoder(enc), WithWorkers(1))

	tuplePool.Drain()
	listed := tuplePool.Take(1 << 20) // larger than the pool's vectors
	listed.Release()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	enc.cancel = cancel
	_, err := p.SearchContext(ctx, q, 5)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), search.StageEncodeTuples.String()) {
		t.Fatalf("search cancelled in its tuple encode returned %v, want a cancellation in %s", err, search.StageEncodeTuples)
	}
	if n := enc.rows.Load(); n < enc.after {
		t.Fatalf("the encoder saw %d rows, fewer than the %d that cancel", n, enc.after)
	}
	r := tuplePool.Take(1)
	defer r.Release()
	if r != listed {
		t.Fatal("the cancelled search did not give its tuple region back")
	}
}

// TestScratchSteadySearchMapsNothing: once warm, a steady run of the same
// search — equal-shaped pools — takes its matrix and tuple regions off the
// free lists and maps none, and answers the same every time.
func TestScratchSteadySearchMapsNothing(t *testing.T) {
	if !region.Supported {
		t.Skip("this build maps no region (the race detector's runtime does not see mapped memory, so every region is a heap slice): there are no maps to count")
	}
	b, q := benchLake(t)
	p := New(b.Lake, WithTopTables(5))
	want, err := p.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	p.Search(q, 5)
	maps, held := region.Maps(), region.ScratchBytes()
	if held <= 0 {
		t.Fatalf("after two searches the process maps %d scratch bytes, want some", held)
	}
	for i := 0; i < 10; i++ {
		got, err := p.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("search %d answers otherwise than the first", i)
		}
	}
	if n := region.Maps() - maps; n != 0 {
		t.Errorf("10 equal searches after warm-up mapped %d regions, want 0", n)
	}
	if got := region.ScratchBytes(); got != held {
		t.Errorf("scratch bytes moved from %d to %d over a steady run", held, got)
	}
}

// TestScratchHeapFallbackSameAnswers: with every mapping refused the
// pool's tuple vectors live on the heap and every search answers as with
// them mapped, at workers 1 and 8.
func TestScratchHeapFallbackSameAnswers(t *testing.T) {
	b, _ := benchLake(t)
	queries := b.Queries[:4]
	run := func(workers int) []*Result {
		p := New(b.Lake, WithTopTables(5), WithWorkers(workers))
		var out []*Result
		for _, q := range queries {
			res, err := p.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	want := [][]*Result{run(1), run(8)}
	regiontest.Refuse(t)
	tuplePool.Drain()
	for i, workers := range []int{1, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("workers=%d: the heap fallback answers otherwise", workers)
		}
	}
	r := tuplePool.Take(1)
	defer r.Release()
	if r.Mapped() {
		t.Fatal("with mapping refused the tuple vectors were mapped")
	}
}
