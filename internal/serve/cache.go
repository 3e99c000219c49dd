package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"dust/internal/table"
)

// cacheEntryOverhead approximates the per-entry bookkeeping bytes beyond
// key and body (list element, map slot, entry header) so the byte bound
// cannot be dodged by caching many tiny responses.
const cacheEntryOverhead = 128

// Cache is an LRU over marshaled search responses. Entries are keyed by
// (query fingerprint, k, pipeline config tag, index epoch) — see cacheKey —
// so a snapshot swap invalidates every prior entry by construction: the
// bumped epoch changes the key, stale entries simply stop being reachable
// and age out of the LRU. Residency is bounded on two axes: entry count
// and, optionally, resident bytes — a max-k workload can pin multi-megabyte
// bodies, so a count bound alone does not bound memory. Eviction runs when
// either bound is exceeded. One mutex guards the whole cache: a lookup is
// a map probe and a list splice, short beside the searches the admission
// bound lets run at once. A nil *Cache is valid and caches nothing (Get
// always misses, Put is a no-op).
type Cache struct {
	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	bytes    int64 // resident entry sizes (key + body + overhead)
	capacity int
	maxBytes int64 // 0 = no byte bound
	hits     atomic.Uint64
	misses   atomic.Uint64
}

type cacheEntry struct {
	key  string
	body []byte
}

// size is the entry's contribution to the cache's byte accounting.
func (e *cacheEntry) size() int64 {
	return int64(len(e.key)) + int64(len(e.body)) + cacheEntryOverhead
}

// NewCacheBytes creates a cache holding at most capacity responses and, when
// maxBytes > 0, at most maxBytes resident bytes (key + body + per-entry
// overhead); entries are evicted LRU-first when either bound is exceeded,
// and a single entry larger than maxBytes is not cached at all. capacity
// <= 0 disables caching (returns nil).
func NewCacheBytes(capacity int, maxBytes int64) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		capacity: capacity,
		maxBytes: max(maxBytes, 0),
	}
}

// Get returns the cached body for key, marking it most recently used.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	body := el.Value.(*cacheEntry).body
	c.mu.Unlock()
	c.hits.Add(1)
	return body, true
}

// Put stores body under key, evicting least-recently-used entries while the
// cache exceeds either its entry capacity or its byte bound. A body too
// large to ever fit the byte bound is dropped rather than cached (caching
// it would immediately evict everything else for a single entry).
func (c *Cache) Put(key string, body []byte) {
	if c == nil {
		return
	}
	e := &cacheEntry{key: key, body: body}
	if c.maxBytes > 0 && e.size() > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		old := el.Value.(*cacheEntry)
		c.bytes += e.size() - old.size()
		old.body = body
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(e)
		c.bytes += e.size()
	}
	for c.ll.Len() > c.capacity || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		back := c.ll.Back()
		evicted := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, evicted.key)
		c.bytes -= evicted.size()
	}
}

// Stats reports lifetime hit/miss counters, the current entry count, and
// the resident bytes (key + body + per-entry overhead) those entries hold.
func (c *Cache) Stats() (hits, misses uint64, entries int, bytes int64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	entries, bytes = c.ll.Len(), c.bytes
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), entries, bytes
}

// queryFingerprint hashes a query table's full content — headers and every
// row, length-prefixed so no two distinct tables collide by concatenation —
// into a short stable hex string. The table name is deliberately excluded:
// two clients posting the same content under different names share a cache
// line.
func queryFingerprint(t *table.Table) string {
	h := sha256.New()
	var lb [8]byte
	write := func(s string) {
		binary.LittleEndian.PutUint64(lb[:], uint64(len(s)))
		h.Write(lb[:])
		h.Write([]byte(s))
	}
	binary.LittleEndian.PutUint64(lb[:], uint64(t.NumCols()))
	h.Write(lb[:])
	for _, name := range t.Headers() {
		write(name)
	}
	for i := 0; i < t.NumRows(); i++ {
		for _, cell := range t.Row(i) {
			write(cell)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// cacheKey composes the full cache key for one search: what was asked
// (query fingerprint, k), how the pipeline answers it (config tag), and
// which index state answers it (epoch).
func cacheKey(fingerprint string, k int, configTag string, epoch uint64) string {
	return fmt.Sprintf("%s|%d|%s|%d", fingerprint, k, configTag, epoch)
}
