package search

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"dust/internal/codec"
	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/lake"
	"dust/internal/table"
)

var update = flag.Bool("update", false, "rewrite golden index files in testdata/")

// persistBench returns a small deterministic benchmark shared by the
// round-trip and golden tests.
func persistBench(t testing.TB) *datagen.Benchmark {
	t.Helper()
	return datagen.Generate("persist-test", datagen.Config{
		Seed: 17, Domains: 2, TablesPerBase: 3, BaseRows: 20, MinRows: 6, MaxRows: 10,
	})
}

// TestStarmieSaveLoadRoundTrip: a loaded index answers like the one saved,
// and their successors after the same mutation answer alike too.
func TestStarmieSaveLoadRoundTrip(t *testing.T) {
	b := persistBench(t)
	orig := NewStarmie(b.Lake)
	loaded, err := LoadStarmie(bytes.NewReader(saveStarmie(t, NewStarmie(b.Lake))), b.Lake)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range b.Queries {
		assertSameHits(t, "loaded "+q.Name, TopK(loaded, q, 8), TopK(orig, q, 8))
	}

	extra := table.New("postload_extra", "Myth", "Origin")
	extra.MustAppendRow("Kraken", "Norse")
	extra.MustAppendRow("Sphinx", "Egyptian")
	grown, grownLoaded := withTable(t, orig, extra), withTable(t, loaded, extra)
	for _, q := range b.Queries {
		assertSameHits(t, "loaded then mutated "+q.Name, TopK(grownLoaded, q, 8), TopK(grown, q, 8))
	}
}

// TestIncrementalErrors: a duplicate WithTable and an unknown WithoutTable
// return a nil successor and the lake's typed error, and neither they nor a
// successful call of each kind moves a byte the receiver saves or a name in
// its lake — also where the receiver holds an over-budget table, which
// every successor re-embeds. A table written into or out of the
// constructor's lake is refused by the index.
func TestIncrementalErrors(t *testing.T) {
	b := persistBench(t)
	s := withTable(t, NewStarmie(b.Lake), bigTable("zz_big", 5))
	saved, names := saveStarmie(t, s), s.Lake().Names()
	unmoved := func(after string) {
		t.Helper()
		if !bytes.Equal(saveStarmie(t, s), saved) || !slices.Equal(s.Lake().Names(), names) {
			t.Fatalf("the receiver moved after %s", after)
		}
	}
	if c, err := s.WithTable(b.Lake.Tables()[0]); c != nil || !errors.Is(err, lake.ErrDuplicateTable) {
		t.Errorf("duplicate WithTable = %v, %v; want nil, lake.ErrDuplicateTable", c, err)
	}
	unmoved("a duplicate WithTable")
	if c, err := s.WithoutTable("never-indexed"); c != nil || !errors.Is(err, lake.ErrUnknownTable) {
		t.Errorf("WithoutTable of unknown = %v, %v; want nil, lake.ErrUnknownTable", c, err)
	}
	unmoved("an unknown WithoutTable")
	withTable(t, s, bigTable("zz_big_too", 6))
	unmoved("a WithTable")
	withoutTable(t, s, names[0])
	unmoved("a WithoutTable")

	// Tables written into the constructor's lake behind the searcher's
	// back are refused, not mistaken for other tables.
	base, first := NewStarmie(b.Lake), b.Lake.Tables()[0]
	stray := bigTable("zz_stray", 7)
	b.Lake.MustAdd(stray)
	if err := b.Lake.Remove(first.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := base.WithoutTable(stray.Name); !errors.Is(err, lake.ErrUnknownTable) {
		t.Errorf("WithoutTable of a table only the lake holds: %v, want lake.ErrUnknownTable", err)
	}
	if _, err := base.WithTable(first); !errors.Is(err, lake.ErrDuplicateTable) {
		t.Errorf("WithTable of a table only the index holds: %v, want lake.ErrDuplicateTable", err)
	}
}

// withTable is s.WithTable(tbl), which must succeed.
func withTable(t testing.TB, s Searcher, tbl *table.Table) *Starmie {
	t.Helper()
	c, err := s.WithTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	return c.(*Starmie)
}

// withoutTable is s.WithoutTable(name), which must succeed.
func withoutTable(t testing.TB, s Searcher, name string) *Starmie {
	t.Helper()
	c, err := s.WithoutTable(name)
	if err != nil {
		t.Fatal(err)
	}
	return c.(*Starmie)
}

// saveStarmie serializes a Starmie index.
func saveStarmie(t testing.TB, s *Starmie) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// load is LoadStarmie over raw bytes against b's lake.
func load(data []byte, b *datagen.Benchmark) error {
	_, err := LoadStarmie(bytes.NewReader(data), b.Lake)
	return err
}

// TestGoldenIndexes pins the on-disk format: a Starmie index saved by an
// older build must keep loading byte-for-byte. Regenerate with `go test -run
// Golden -update ./internal/search` after an intentional format-version
// bump.
func TestGoldenIndexes(t *testing.T) {
	b := persistBench(t)
	data := saveStarmie(t, NewStarmie(b.Lake))
	path := filepath.Join("testdata", "golden_starmie.idx")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if err := load(golden, b); err != nil {
		t.Errorf("golden index no longer loads: %v", err)
	}
	if !bytes.Equal(golden, data) {
		t.Errorf("serialization changed without a format-version bump (len %d -> %d)", len(golden), len(data))
	}
}

// TestLoadErrorPaths feeds damaged copies of every index file the loader
// may meet to it and requires the typed error of the damage. The live kind
// is a Starmie index, which loads when intact. The retired kind bytes — 'A'
// (HNSW graph), 'D' (D3L) and 'T' (tuple-level), here over a Starmie
// payload — intact or with any damage past the header, fail the kind check
// as codec.ErrWrongKind, never as bit rot.
func TestLoadErrorPaths(t *testing.T) {
	b := persistBench(t)
	starmie := saveStarmie(t, NewStarmie(b.Lake))
	retag := func(kind byte) []byte {
		out := append([]byte(nil), starmie...)
		out[6] = kind
		return out
	}
	fixtures := map[string][]byte{
		"starmie": starmie, "ann": retag('A'), "d3l": retag('D'), "tuples": retag('T'),
	}
	for name, valid := range fixtures {
		retired := name != "starmie"
		t.Run(name, func(t *testing.T) {
			cases := []struct {
				name          string
				bytes         []byte
				want, retired error
			}{
				{"empty", nil, codec.ErrBadMagic, codec.ErrBadMagic},
				{"bad magic", []byte("not an index file at all........"), codec.ErrBadMagic, codec.ErrBadMagic},
				{"truncated header", valid[:12], codec.ErrTruncated, codec.ErrTruncated},
				{"truncated payload", valid[:len(valid)/2], codec.ErrTruncated, codec.ErrWrongKind},
				{"truncated crc", valid[:len(valid)-2], codec.ErrTruncated, codec.ErrWrongKind},
				{"checksum flip", flipByte(valid, len(valid)/2), codec.ErrChecksum, codec.ErrWrongKind},
				{"future version", bumpVersion(valid), codec.ErrVersion, codec.ErrWrongKind},
				{"trailing bytes", append(bytes.Clone(valid), 0), codec.ErrCorrupt, codec.ErrWrongKind},
				{"intact", valid, nil, codec.ErrWrongKind},
			}
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					want := c.want
					if retired {
						want = c.retired
					}
					if err := load(c.bytes, b); !errors.Is(err, want) {
						t.Errorf("err = %v, want %v", err, want)
					}
				})
			}
		})
	}
}

// hostileIndex is a Starmie envelope of under 100 bytes with a valid CRC
// whose payload declares count tables and ends there.
func hostileIndex(t testing.TB, count int) []byte {
	t.Helper()
	enc := embed.NewStarmie()
	var buf bytes.Buffer
	err := codec.WriteEnvelope(&buf, codec.KindStarmie, StarmieFormatVersion, func(e *codec.Encoder) error {
		e.String(enc.Name())
		e.String(enc.Model.Fingerprint())
		e.Int(enc.Dim())
		e.Float64(enc.ContextWeight)
		e.Float64(0)
		e.Int(count) // tables
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= 100 {
		t.Fatalf("hostile index of %d bytes", buf.Len())
	}
	return buf.Bytes()
}

// TestLoadHostileCount: a count the CRC vouches for but the payload cannot
// hold fails as a typed error without allocating by the count.
func TestLoadHostileCount(t *testing.T) {
	b := persistBench(t)
	data := hostileIndex(t, 1<<22)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := load(data, b)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, codec.ErrCorrupt) {
		t.Errorf("err = %v, want codec.ErrTruncated or codec.ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("loading %d bytes that declare 2^22 tables allocated %d bytes", len(data), n)
	}
}

func TestLoadLakeMismatch(t *testing.T) {
	b := persistBench(t)
	saved := saveStarmie(t, NewStarmie(b.Lake))

	// A lake with one extra table no longer matches the index.
	bigger := lake.New("bigger")
	for _, tab := range b.Lake.Tables() {
		bigger.MustAdd(tab)
	}
	extra := table.New("straggler", "a")
	extra.MustAppendRow("x")
	bigger.MustAdd(extra)
	if _, err := LoadStarmie(bytes.NewReader(saved), bigger); !errors.Is(err, ErrLakeMismatch) {
		t.Errorf("starmie vs bigger lake: err = %v, want ErrLakeMismatch", err)
	}

	// A lake missing an indexed table fails too (same size, different set).
	swapped := lake.New("swapped")
	tables := b.Lake.Tables()
	for _, tab := range tables[1:] {
		swapped.MustAdd(tab)
	}
	swapped.MustAdd(extra)
	if _, err := LoadStarmie(bytes.NewReader(saved), swapped); !errors.Is(err, ErrLakeMismatch) {
		t.Errorf("starmie vs swapped lake: err = %v, want ErrLakeMismatch", err)
	}
}

func TestSaveRefusesOutOfSyncIndex(t *testing.T) {
	b := persistBench(t)
	s := NewStarmie(b.Lake)
	orphan := table.New("orphan", "a")
	orphan.MustAppendRow("x")
	b.Lake.MustAdd(orphan)
	defer func() {
		if err := b.Lake.Remove("orphan"); err != nil {
			t.Fatal(err)
		}
	}()
	if err := s.Save(&bytes.Buffer{}); !errors.Is(err, ErrLakeMismatch) {
		t.Errorf("starmie save err = %v, want ErrLakeMismatch", err)
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte{}, data...)
	out[i] ^= 0x40
	return out
}

// bumpVersion rewrites the envelope's version field to a future value and
// fixes nothing else; loaders must refuse it before touching the payload.
func bumpVersion(data []byte) []byte {
	out := append([]byte{}, data...)
	out[7], out[8] = 0xFF, 0x7F
	return out
}

func ExampleStarmie_Save() {
	l := lake.New("demo")
	parks := table.New("parks", "Park", "City")
	parks.MustAppendRow("River Park", "Fresno")
	l.MustAdd(parks)

	var buf bytes.Buffer
	if err := NewStarmie(l).Save(&buf); err != nil {
		fmt.Println("save:", err)
		return
	}
	loaded, err := LoadStarmie(bytes.NewReader(buf.Bytes()), l)
	if err != nil {
		fmt.Println("load:", err)
		return
	}
	fmt.Println(loaded.Name(), "reloaded")
	// Output: starmie reloaded
}
