package par

import (
	"sync/atomic"
	"testing"
)

func TestNormalize(t *testing.T) {
	if got := Normalize(0); got != DefaultWorkers() {
		t.Errorf("Normalize(0) = %d, want DefaultWorkers() = %d", got, DefaultWorkers())
	}
	if got := Normalize(-3); got != DefaultWorkers() {
		t.Errorf("Normalize(-3) = %d, want %d", got, DefaultWorkers())
	}
	if got := Normalize(5); got != 5 {
		t.Errorf("Normalize(5) = %d, want 5", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 137
		var hits [n]int32
		For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestForChunksPartition(t *testing.T) {
	const n = 10
	var covered [n]int32
	chunks := int32(0)
	ForChunks(4, n, func(lo, hi int) {
		atomic.AddInt32(&chunks, 1)
		if lo >= hi || lo < 0 || hi > n {
			t.Errorf("bad chunk [%d, %d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	if chunks > 4 {
		t.Errorf("got %d chunks, want <= 4", chunks)
	}
	for i, c := range covered {
		if c != 1 {
			t.Errorf("index %d covered %d times", i, c)
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	ran := false
	For(4, 0, func(int) { ran = true })
	For(4, -5, func(int) { ran = true })
	if ran {
		t.Error("body ran for n <= 0")
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	fn := func(i int) int { return i*i - 7*i }
	want := Map(1, 501, fn)
	for _, workers := range []int{2, 4, 16} {
		got := Map(workers, 501, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: Map[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	For(4, 100, func(i int) {
		if i == 41 {
			panic("boom")
		}
	})
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var sum int64
	for i := 1; i <= 100; i++ {
		i := i
		p.Submit(func() { atomic.AddInt64(&sum, int64(i)) })
	}
	p.Wait()
	if sum != 5050 {
		t.Errorf("sum = %d, want 5050", sum)
	}
	// The pool is reusable across Wait calls until Close.
	p.Submit(func() { atomic.AddInt64(&sum, 1) })
	p.Wait()
	if sum != 5051 {
		t.Errorf("after second round sum = %d, want 5051", sum)
	}
}

func TestPoolPanicPropagatesOnWait(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Submit(func() { panic("task failed") })
	defer func() {
		if r := recover(); r != "task failed" {
			t.Errorf("recovered %v, want task failed", r)
		}
	}()
	p.Wait()
}
