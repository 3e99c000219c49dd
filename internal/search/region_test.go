package search

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dust/internal/embed"
	"dust/internal/region"
	"dust/internal/region/regiontest"
	"dust/internal/table"
)

// settleRegions runs the collector until RegionBytes has stopped moving:
// every region dropped before the call is unmapped when it returns.
func settleRegions() int64 {
	last, still := RegionBytes(), 0
	for still < 5 {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if n := RegionBytes(); n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
	return last
}

// waitRegionBytes runs the collector until RegionBytes reads want.
func waitRegionBytes(t *testing.T, label string, want int64) {
	t.Helper()
	for i := 0; i < 500 && RegionBytes() != want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := RegionBytes(); got != want {
		t.Fatalf("%s: RegionBytes = %d, want %d", label, got, want)
	}
}

// regionSize is the bytes s's region maps: a float64 and an int8 code per
// stored element; 0 when its blocks live on the heap.
func regionSize(s *Starmie) int64 {
	if !s.region.Mapped() {
		return 0
	}
	n := 0
	for _, e := range s.idx.entries {
		n += len(e.block)
	}
	return int64(9 * n)
}

// needMapping skips a test that counts or protects mapped bytes in a
// build that maps nothing.
func needMapping(t *testing.T) {
	if !region.Supported {
		t.Skip("this build maps no region (the race detector's runtime does not see mapped memory, so every region is a heap slice): there are no mapped bytes to count")
	}
}

// TestIndexRegionFreed: a built and a loaded index each map one region,
// counted by RegionBytes until the collector finalizes the dropped
// searcher; a load that fails after carving its index (a truncated file, a
// checksum mismatch) leaves nothing mapped either.
func TestIndexRegionFreed(t *testing.T) {
	needMapping(t)
	regiontest.Protect(t)
	b := persistBench(t)
	base := settleRegions()
	built := NewStarmie(b.Lake)
	size := regionSize(built)
	if got := RegionBytes() - base; got != size {
		t.Fatalf("a build mapped %d bytes, want %d", got, size)
	}
	data := saveStarmie(t, built)

	maps := region.Maps()
	for _, bad := range [][]byte{data[:len(data)*3/4], flipByte(data, len(data)/2)} {
		if err := load(bad, b); err == nil {
			t.Fatal("a damaged index loaded")
		}
	}
	if n := region.Maps() - maps; n != 2 {
		t.Fatalf("the damaged loads mapped %d regions, want 2 (the test needs loads that fail after carving)", n)
	}
	waitRegionBytes(t, "after two failed loads", base+size)

	loaded, err := LoadStarmie(bytes.NewReader(data), b.Lake)
	if err != nil {
		t.Fatal(err)
	}
	if got := RegionBytes() - base; got != 2*size {
		t.Fatalf("a build and a load hold %d bytes, want %d", got, 2*size)
	}
	if !bytes.Equal(saveStarmie(t, loaded), data) {
		t.Fatal("the loaded index saves other bytes")
	}
	runtime.KeepAlive(built) // the build's last use: it is dropped from here
	waitRegionBytes(t, "with the build dropped", base+size)
	runtime.KeepAlive(loaded)
	waitRegionBytes(t, "with both dropped", base)
}

// TestSuccessorKeepsRegion: successors share their parent's region, so one
// whose parent has been dropped and collected still holds it and answers
// as it did before, bit for bit (with the region released by protection
// where the platform can, a read of a released block faults).
func TestSuccessorKeepsRegion(t *testing.T) {
	needMapping(t)
	regiontest.Protect(t)
	base := settleRegions()
	s, queries := dirtyLake(t, embed.NewStarmie())
	size := regionSize(s)
	grown := withTable(t, s, bigTable("zz_big", 3))
	shrunk := withoutTable(t, s, s.lake.Names()[7])
	want := make([][2][]Scored, len(queries))
	for i, q := range queries {
		want[i] = [2][]Scored{TopK(grown, q, 10), TopK(shrunk, q, 10)}
	}
	// s is dropped from here: nothing below reads it.
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := RegionBytes() - base; got != size {
		t.Fatalf("successors of a dropped parent hold %d region bytes, want its %d", got, size)
	}
	for i, q := range queries {
		assertSameHits(t, fmt.Sprintf("grown, query %d", i), TopK(grown, q, 10), want[i][0])
		assertSameHits(t, fmt.Sprintf("shrunk, query %d", i), TopK(shrunk, q, 10), want[i][1])
	}
	waitRegionBytes(t, "with one successor left", base+size)
	for i, q := range queries {
		assertSameHits(t, fmt.Sprintf("shrunk alone, query %d", i), TopK(shrunk, q, 10), want[i][1])
	}
	runtime.KeepAlive(shrunk)
	waitRegionBytes(t, "with every successor dropped", base)
}

// TestHeapFallbackSameBits: where no mapping can be made the index lives on
// the heap, behind a handle that maps nothing, and builds, saves, loads and
// answers exactly as a mapped one.
func TestHeapFallbackSameBits(t *testing.T) {
	b := persistBench(t)
	mapped := NewStarmie(b.Lake)
	data := saveStarmie(t, mapped)

	regiontest.Refuse(t)
	heap := NewStarmie(b.Lake)
	loaded, err := LoadStarmie(bytes.NewReader(data), b.Lake)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Starmie{heap, loaded} {
		if s.region.Mapped() {
			t.Fatal("an index built with mapping refused is mapped")
		}
		if !bytes.Equal(saveStarmie(t, s), data) {
			t.Fatal("an index on the heap saves other bytes")
		}
		for _, q := range append(b.Queries, table.New("query")) {
			assertSameHits(t, "heap "+q.Name, TopK(s, q, 8), TopK(mapped, q, 8))
		}
	}
}
