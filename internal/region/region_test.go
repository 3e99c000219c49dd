package region

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// refuse makes every mapping fail for the rest of the test.
func refuse(t *testing.T) {
	t.Cleanup(Replace(Seams{Map: func(int) ([]byte, error) { return nil, errors.ErrUnsupported }}))
}

// TestRegionNewAndFinalizer: New maps a zeroed region counted in its gauge
// until the collector finalizes its dropped handle, and carves views over
// it; a region of no bytes maps nothing.
func TestRegionNewAndFinalizer(t *testing.T) {
	var gauge atomic.Int64
	maps := Maps()
	r := New(4096, &gauge)
	if r.Mapped() != Supported {
		t.Fatalf("Mapped = %v in a build where Supported = %v", r.Mapped(), Supported)
	}
	want := int64(0)
	if Supported {
		want = 4096
	}
	if gauge.Load() != want || Maps()-maps != want/4096 {
		t.Fatalf("a 4096-byte region counts %d bytes and %d maps, want %d and %d", gauge.Load(), Maps()-maps, want, want/4096)
	}
	f := View[float64](r.Bytes(), 256)
	b := View[int8](r.Bytes()[2048:], 2048)
	for i := range f {
		if f[i] != 0 {
			t.Fatal("a new region is not zeroed")
		}
		f[i] = float64(i)
	}
	if b[0] != 0 || len(b) != 2048 {
		t.Fatalf("the int8 view reads %d over %d bytes", b[0], len(b))
	}
	runtime.KeepAlive(r)
	for i := 0; i < 500 && gauge.Load() != 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if gauge.Load() != 0 {
		t.Fatalf("a dropped region still counts %d bytes", gauge.Load())
	}
	if z := New(0, &gauge); z.Mapped() || len(z.Bytes()) != 0 || View[float64](z.Bytes(), 0) != nil {
		t.Fatal("a region of no bytes maps or holds something")
	}
}

// TestRegionHeapFallback: with mapping refused a region is an 8-aligned,
// zeroed heap slice, counted nowhere.
func TestRegionHeapFallback(t *testing.T) {
	refuse(t)
	var gauge atomic.Int64
	maps := Maps()
	r := New(13, &gauge)
	if r.Mapped() || gauge.Load() != 0 || Maps() != maps {
		t.Fatal("a refused mapping is counted")
	}
	if len(r.Bytes()) != 13 || uintptr(unsafe.Pointer(unsafe.SliceData(r.Bytes())))%8 != 0 {
		t.Fatalf("the fallback is %d bytes at a misaligned address", len(r.Bytes()))
	}
	for _, x := range r.Bytes() {
		if x != 0 {
			t.Fatal("the fallback is not zeroed")
		}
	}
}

// TestScratchPoolRecycles: a released region is the next Take's, if large
// enough; a smaller listed region is unmapped when a larger request pops
// it; the list holds at most GOMAXPROCS regions and unmaps the rest;
// Drain unmaps what it lists; ScratchBytes follows every step.
func TestScratchPoolRecycles(t *testing.T) {
	if !Supported {
		t.Skip("this build maps no region (the race detector's runtime does not see mapped memory, so every region is a heap slice): there are no mapped bytes to count")
	}
	var p Pool
	base := ScratchBytes()
	a := p.Take(1000)
	if ScratchBytes()-base != 1000 {
		t.Fatalf("one taken region counts %d bytes, want 1000", ScratchBytes()-base)
	}
	a.Release()
	if got := p.Take(600); got != a {
		t.Fatal("a smaller request did not take the listed region")
	}
	a.Release()
	maps := Maps()
	big := p.Take(5000)
	if big == a || Maps()-maps != 1 || ScratchBytes()-base != 5000 {
		t.Fatalf("a larger request: %d maps, %d bytes; want a new region, the small one unmapped", Maps()-maps, ScratchBytes()-base)
	}
	procs := runtime.GOMAXPROCS(0)
	taken := []*Region{big}
	for len(taken) < procs+2 {
		taken = append(taken, p.Take(5000))
	}
	for _, r := range taken {
		r.Release()
	}
	if got, want := ScratchBytes()-base, int64(procs*5000); got != want {
		t.Fatalf("%d released regions count %d bytes with the list full, want %d", len(taken), got, want)
	}
	p.Drain()
	if got := ScratchBytes(); got != base {
		t.Fatalf("a drained pool counts %d bytes", got-base)
	}
}

// TestScratchFinalizerReleases: a taken region whose handle is dropped is
// given back to its pool by the finalizer, through the Recycle seam.
func TestScratchFinalizerReleases(t *testing.T) {
	var recycled atomic.Int64
	t.Cleanup(Replace(Seams{Recycle: func(b []byte) { recycled.Add(int64(len(b))) }}))
	var p Pool
	func() { p.Take(777) }()
	for i := 0; i < 500 && recycled.Load() == 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if recycled.Load() != 777 {
		t.Fatalf("the finalizer recycled %d bytes, want 777", recycled.Load())
	}
	r := p.Take(1)
	defer r.Release()
	if len(r.Bytes()) != 777 {
		t.Fatalf("the next Take got a region of %d bytes, want the dropped one's 777", len(r.Bytes()))
	}
}
