package embed

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func batchRows(n int) ([]string, [][]string) {
	headers := []string{"Park Name", "Supervisor", "City", "Country"}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("Park %d", i),
			fmt.Sprintf("Supervisor %d", i%17),
			fmt.Sprintf("City %d", i%29),
			"USA",
		}
	}
	return headers, rows
}

func TestEncodeTupleBatchMatchesSequential(t *testing.T) {
	enc := NewRoBERTa()
	headers, rows := batchRows(211)
	want, err := enc.EncodeTupleBatch(context.Background(), headers, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Fatalf("batch returned %d vectors, want %d", len(want), len(rows))
	}
	for i, r := range rows {
		one := enc.EncodeTuple(headers, r)
		for j := range one {
			if want[i][j] != one[j] {
				t.Fatalf("row %d: batch[%d] = %v, EncodeTuple = %v", i, j, want[i][j], one[j])
			}
		}
	}
	for _, workers := range []int{2, 8} {
		got, err := enc.EncodeTupleBatch(context.Background(), headers, rows, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d row %d dim %d: %v, want %v",
						workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestEncodeTupleBatchEmpty(t *testing.T) {
	enc := NewFastText()
	got, err := enc.EncodeTupleBatch(context.Background(), []string{"A"}, nil, 8)
	if err != nil || len(got) != 0 {
		t.Errorf("empty batch returned %d vectors, err %v", len(got), err)
	}
}

// TestEncodeTupleBatchCancelled: a cancelled ctx returns ctx.Err() and no
// vectors, at every worker count.
func TestEncodeTupleBatchCancelled(t *testing.T) {
	enc := NewRoBERTa()
	headers, rows := batchRows(50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		got, err := enc.EncodeTupleBatch(ctx, headers, rows, workers)
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("workers=%d: got %d vectors, err %v; want nil, context.Canceled", workers, len(got), err)
		}
	}
}

// TestEncodeTupleBatchAllocs pins the batch path's garbage: the header row
// is tokenized once per batch, a lowercase-ASCII value word is a substring
// of its cell and the token buffer is reused across rows, so a row costs its
// output vector and nothing else. The constant covers the schema (its tagged
// header words), the output slice and the buffer's growth: 24 at this shape.
func TestEncodeTupleBatchAllocs(t *testing.T) {
	enc := NewRoBERTa()
	headers := []string{"park name", "supervisor", "city", "country"}
	rows := make([][]string, 100)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("park %d", i), fmt.Sprintf("supervisor %d", i%17), "lake city", "usa"}
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := enc.EncodeTupleBatch(ctx, headers, rows, 1); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(rows) + 32); allocs > limit {
		t.Errorf("EncodeTupleBatch over %d rows: %v allocations, want <= %v", len(rows), allocs, limit)
	}
}
