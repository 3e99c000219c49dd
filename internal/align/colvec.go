package align

import (
	"sync"

	"dust/internal/table"
	"dust/internal/vector"
)

// columnVectorBytes bounds the vectors the column-vector memo holds, at any
// lake size: 8 192 at dimension 128, plus about 130 bytes of map entry each.
// The benchmark's lakes keep 1–4 MB live (docs/ARCHITECTURE.md, "Column vectors").
const columnVectorBytes = 8 << 20

// columnKey names a lake column by its table object's identity: a table is
// immutable once in a lake (lake.Add), lake.Clone shares the objects and a
// PUT that replaces a name brings a new one, so the memo needs no epoch and
// no invalidation. enc is the encoder's full Fingerprint; its Name would let
// differently configured models share vectors.
type columnKey struct {
	enc   string
	table *table.Table
	index int
}

// columnEntry is a kept vector with the column's header and row count at
// store: a cheap guard against a caller that wrote a table in place after
// all — a mismatch at read is a miss.
type columnEntry struct {
	vec  vector.Vec
	name string
	rows int
}

// ColumnVectorCounts is the memo's traffic in this process: every lake column
// EmbedColumns embedded was a hit (read back), a miss (encoded and kept) or
// unstorable (encoded against its universe's corpus, so not kept). Evicted
// counts vectors dropped to stay within the bound; Bytes is held now.
type ColumnVectorCounts struct {
	Hits, Misses, Unstorable, Evicted uint64
	Bytes                             int
}

// columnVectors is the process-wide memo under EmbedColumns. It holds only
// vectors derived without the corpus (EncodeColumn's pure), so a hit is the
// bits any universe would derive: the memo decides when a vector is computed,
// never what it is. Nobody writes a vector once it is stored — requests hold
// it by reference, and eviction only drops the memo's.
var columnVectors = columnVectorMemo{limit: columnVectorBytes, m: map[columnKey]columnEntry{}}

type columnVectorMemo struct {
	sync.Mutex
	limit int
	m     map[columnKey]columnEntry
	n     ColumnVectorCounts
}

// ColumnVectorStats returns the memo's counts so far.
func ColumnVectorStats() ColumnVectorCounts {
	columnVectors.Lock()
	defer columnVectors.Unlock()
	return columnVectors.n
}

// load returns the vector kept for k, or nil.
func (c *columnVectorMemo) load(k columnKey, col *table.Column) vector.Vec {
	c.Lock()
	defer c.Unlock()
	if e, ok := c.m[k]; ok && e.name == col.Name && e.rows == len(col.Values) {
		c.n.Hits++
		return e.vec
	}
	return nil
}

// store keeps a pure v for k, first evicting whatever entries map iteration
// yields — in effect random ones — until it fits.
func (c *columnVectorMemo) store(k columnKey, col *table.Column, v vector.Vec, pure bool) {
	c.Lock()
	defer c.Unlock()
	if !pure {
		c.n.Unstorable++
		return
	}
	c.n.Misses++
	if old, ok := c.m[k]; ok { // stale, or stored by a concurrent request
		c.n.Bytes -= 8 * len(old.vec)
		delete(c.m, k)
	}
	for ek, e := range c.m {
		if c.n.Bytes+8*len(v) <= c.limit {
			break
		}
		c.n.Bytes -= 8 * len(e.vec)
		c.n.Evicted++
		delete(c.m, ek)
	}
	c.m[k] = columnEntry{vec: v, name: col.Name, rows: len(col.Values)}
	c.n.Bytes += 8 * len(v)
}
