package serve

import (
	"fmt"
	"testing"

	"dust/internal/table"
)

func TestCacheGetPutLRU(t *testing.T) {
	c := NewCacheBytes(2, 0)
	c.Put("a", []byte("va"))
	c.Put("b", []byte("vb"))
	if got, ok := c.Get("a"); !ok || string(got) != "va" {
		t.Fatalf("Get after Put = %q/%v", got, ok)
	}
	// Capacity 2 and "a" was just read: the third entry evicts "b".
	c.Put("c", []byte("vc"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry still served")
	}
	if got, ok := c.Get("c"); !ok || string(got) != "vc" {
		t.Fatalf("survivor = %q/%v", got, ok)
	}
	hits, misses, entries, bytes := c.Stats()
	if hits != 2 || misses != 1 || entries != 2 {
		t.Fatalf("stats = %d hits / %d misses / %d entries, want 2/1/2", hits, misses, entries)
	}
	if bytes <= 0 {
		t.Fatalf("bytes = %d with %d resident entries, want > 0", bytes, entries)
	}
}

func TestCacheUpdateExistingKey(t *testing.T) {
	c := NewCacheBytes(64, 0)
	c.Put("k", []byte("old"))
	c.Put("k", []byte("new"))
	if got, ok := c.Get("k"); !ok || string(got) != "new" {
		t.Fatalf("updated entry = %q/%v, want new/true", got, ok)
	}
	if _, _, entries, _ := c.Stats(); entries != 1 {
		t.Fatalf("entries = %d after in-place update, want 1", entries)
	}
}

func TestCacheCapacityBound(t *testing.T) {
	const capacity = 64
	c := NewCacheBytes(capacity, 0)
	for i := 0; i < capacity*4; i++ {
		c.Put(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	if _, _, entries, _ := c.Stats(); entries != capacity {
		t.Fatalf("cache holds %d entries, capacity %d", entries, capacity)
	}
}

func TestCacheByteBound(t *testing.T) {
	// Generous entry capacity, tight byte budget: eviction must trigger on
	// bytes alone. The budget fits two of these entries.
	const perEntry = 1024
	const budget = 2 * (perEntry + cacheEntryOverhead + 16)
	c := NewCacheBytes(1<<20, budget)
	body := make([]byte, perEntry)
	for i := 0; i < 512; i++ {
		c.Put(fmt.Sprintf("key-%d", i), body)
	}
	if _, _, entries, bytes := c.Stats(); entries != 2 || bytes > budget {
		t.Fatalf("%d entries / %d bytes resident, want 2 within the %d budget", entries, bytes, budget)
	}

	// An entry a quarter of the byte bound is cached: the bound is the
	// whole cache's, not a sixteenth of it per shard.
	c4 := NewCacheBytes(16, 4*budget)
	c4.Put("quarter", make([]byte, budget))
	if _, ok := c4.Get("quarter"); !ok {
		t.Fatal("entry a quarter of the byte bound was refused")
	}

	// Accounting must shrink when an update replaces a large body with a
	// small one, and grow back on the reverse.
	c2 := NewCacheBytes(16, 1<<20)
	c2.Put("k", make([]byte, 4096))
	_, _, _, before := c2.Stats()
	c2.Put("k", make([]byte, 16))
	_, _, _, after := c2.Stats()
	if after >= before {
		t.Fatalf("bytes %d -> %d after shrinking update, want a decrease", before, after)
	}

	// An entry larger than the whole byte bound is refused outright.
	c3 := NewCacheBytes(16, 1024)
	c3.Put("huge", make([]byte, 4096))
	if _, ok := c3.Get("huge"); ok {
		t.Fatal("oversized entry was cached")
	}
	if _, _, entries, bytes := c3.Stats(); entries != 0 || bytes != 0 {
		t.Fatalf("oversized entry left residue: %d entries / %d bytes", entries, bytes)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if h, m, e, b := c.Stats(); h != 0 || m != 0 || e != 0 || b != 0 {
		t.Fatalf("nil cache stats %d/%d/%d/%d", h, m, e, b)
	}
	if NewCacheBytes(0, 0) != nil {
		t.Fatal("NewCacheBytes(0, 0) should disable caching")
	}
}

func TestQueryFingerprint(t *testing.T) {
	a := table.New("a", "x", "y")
	a.MustAppendRow("1", "2")
	sameContent := table.New("other_name", "x", "y")
	sameContent.MustAppendRow("1", "2")
	if queryFingerprint(a) != queryFingerprint(sameContent) {
		t.Fatal("fingerprint depends on the table name")
	}
	diffRow := table.New("a", "x", "y")
	diffRow.MustAppendRow("1", "3")
	if queryFingerprint(a) == queryFingerprint(diffRow) {
		t.Fatal("different rows share a fingerprint")
	}
	diffHeader := table.New("a", "x", "z")
	diffHeader.MustAppendRow("1", "2")
	if queryFingerprint(a) == queryFingerprint(diffHeader) {
		t.Fatal("different headers share a fingerprint")
	}
	// Length-prefixing: ("ab","c") must not collide with ("a","bc").
	p := table.New("p", "h1", "h2")
	p.MustAppendRow("ab", "c")
	q := table.New("q", "h1", "h2")
	q.MustAppendRow("a", "bc")
	if queryFingerprint(p) == queryFingerprint(q) {
		t.Fatal("cell-boundary shift shares a fingerprint")
	}
}

func TestCacheKeyComponents(t *testing.T) {
	base := cacheKey("fp", 5, "tag", 1)
	for _, other := range []string{
		cacheKey("fq", 5, "tag", 1),
		cacheKey("fp", 6, "tag", 1),
		cacheKey("fp", 5, "tag2", 1),
		cacheKey("fp", 5, "tag", 2),
	} {
		if other == base {
			t.Fatalf("cache key %q ignores a component", base)
		}
	}
}
