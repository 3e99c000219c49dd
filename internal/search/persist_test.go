package search

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dust/internal/codec"
	"dust/internal/datagen"
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

func sameScored(t *testing.T, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Table.Name != want[i].Table.Name || got[i].Score != want[i].Score {
			t.Fatalf("hit %d: got (%s, %v), want (%s, %v)",
				i, got[i].Table.Name, got[i].Score, want[i].Table.Name, want[i].Score)
		}
	}
}

func TestStarmieSaveLoadRoundTrip(t *testing.T) {
	b := persistBench(t)
	orig := NewStarmie(b.Lake)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStarmie(bytes.NewReader(buf.Bytes()), b.Lake)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range b.Queries {
		sameScored(t, TopK(loaded, q, 8), TopK(orig, q, 8))
	}

	// A loaded index keeps working incrementally: mutate both sides and
	// results must stay identical.
	extra := table.New("postload_extra", "Myth", "Origin")
	extra.MustAppendRow("Kraken", "Norse")
	extra.MustAppendRow("Sphinx", "Egyptian")
	b.Lake.MustAdd(extra)
	if err := orig.AddTable(extra); err != nil {
		t.Fatal(err)
	}
	if err := loaded.AddTable(extra); err != nil {
		t.Fatal(err)
	}
	for _, q := range b.Queries {
		sameScored(t, TopK(loaded, q, 8), TopK(orig, q, 8))
	}
}

func TestD3LSaveLoadRoundTrip(t *testing.T) {
	b := persistBench(t)
	orig := NewD3L(b.Lake)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadD3L(bytes.NewReader(buf.Bytes()), b.Lake)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range b.Queries {
		sameScored(t, TopK(loaded, q, 8), TopK(orig, q, 8))
		if got, want := lshCandidates(loaded, q), lshCandidates(orig, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %s: candidates %v, want %v", q.Name, got, want)
		}
	}
}

func TestTupleSearchSaveLoadRoundTrip(t *testing.T) {
	b := persistBench(t)
	orig := NewTupleSearch(b.Lake.Tables())

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTupleSearch(bytes.NewReader(buf.Bytes()), b.Lake.Tables())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), orig.Len())
	}
	for _, q := range b.Queries[:2] {
		got, want := loaded.TopK(q, 10), orig.TopK(q, 10)
		if len(got) != len(want) {
			t.Fatalf("got %d hits, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Table.Name != want[i].Table.Name || got[i].Row != want[i].Row || got[i].Score != want[i].Score {
				t.Fatalf("hit %d: got (%s, %d, %v), want (%s, %d, %v)", i,
					got[i].Table.Name, got[i].Row, got[i].Score,
					want[i].Table.Name, want[i].Row, want[i].Score)
			}
		}
	}
}

// saveAll serializes all three indexes over the benchmark lake.
func saveAll(t testing.TB, b *datagen.Benchmark) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var buf bytes.Buffer
	if err := NewStarmie(b.Lake).Save(&buf); err != nil {
		t.Fatal(err)
	}
	out["starmie"] = append([]byte{}, buf.Bytes()...)
	buf.Reset()
	if err := NewD3L(b.Lake).Save(&buf); err != nil {
		t.Fatal(err)
	}
	out["d3l"] = append([]byte{}, buf.Bytes()...)
	buf.Reset()
	if err := NewTupleSearch(b.Lake.Tables()).Save(&buf); err != nil {
		t.Fatal(err)
	}
	out["tuples"] = append([]byte{}, buf.Bytes()...)
	return out
}

// loadAny dispatches raw bytes to the loader matching name.
func loadAny(name string, data []byte, b *datagen.Benchmark) error {
	switch name {
	case "starmie":
		_, err := LoadStarmie(bytes.NewReader(data), b.Lake)
		return err
	case "d3l":
		_, err := LoadD3L(bytes.NewReader(data), b.Lake)
		return err
	case "tuples":
		_, err := LoadTupleSearch(bytes.NewReader(data), b.Lake.Tables())
		return err
	}
	panic("unknown index " + name)
}

// TestGoldenIndexes pins the on-disk format: indexes saved by older builds
// must keep loading byte-for-byte. Regenerate with `go test -run Golden
// -update ./internal/search` after an intentional format-version bump.
func TestGoldenIndexes(t *testing.T) {
	b := persistBench(t)
	fresh := saveAll(t, b)
	for name, data := range fresh {
		path := filepath.Join("testdata", "golden_"+name+".idx")
		if *update {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if err := loadAny(name, golden, b); err != nil {
			t.Errorf("%s: golden index no longer loads: %v", name, err)
		}
		if !bytes.Equal(golden, data) {
			t.Errorf("%s: serialization changed without a format-version bump (len %d -> %d)",
				name, len(golden), len(data))
		}
	}
}

func TestLoadErrorPaths(t *testing.T) {
	b := persistBench(t)
	for name, valid := range saveAll(t, b) {
		t.Run(name, func(t *testing.T) {
			cases := []struct {
				name  string
				bytes []byte
				want  error
			}{
				{"empty", nil, codec.ErrBadMagic},
				{"bad magic", []byte("not an index file at all........"), codec.ErrBadMagic},
				{"truncated header", valid[:12], codec.ErrTruncated},
				{"truncated payload", valid[:len(valid)/2], codec.ErrTruncated},
				{"truncated crc", valid[:len(valid)-2], codec.ErrTruncated},
				{"checksum flip", flipByte(valid, len(valid)/2), codec.ErrChecksum},
				{"future version", bumpVersion(valid), codec.ErrVersion},
			}
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					err := loadAny(name, c.bytes, b)
					if !errors.Is(err, c.want) {
						t.Errorf("err = %v, want %v", err, c.want)
					}
				})
			}
			// Wrong kind: feed each index to a different family's loader.
			other := map[string]string{"starmie": "d3l", "d3l": "tuples", "tuples": "starmie"}[name]
			if err := loadAny(other, valid, b); !errors.Is(err, codec.ErrWrongKind) {
				t.Errorf("cross-kind load err = %v, want ErrWrongKind", err)
			}
		})
	}
}

func TestLoadLakeMismatch(t *testing.T) {
	b := persistBench(t)
	saved := saveAll(t, b)

	// A lake with one extra table no longer matches the index.
	bigger := lake.New("bigger")
	for _, tab := range b.Lake.Tables() {
		bigger.MustAdd(tab)
	}
	extra := table.New("straggler", "a")
	extra.MustAppendRow("x")
	bigger.MustAdd(extra)
	for _, name := range []string{"starmie", "d3l"} {
		err := func() error {
			if name == "starmie" {
				_, err := LoadStarmie(bytes.NewReader(saved[name]), bigger)
				return err
			}
			_, err := LoadD3L(bytes.NewReader(saved[name]), bigger)
			return err
		}()
		if !errors.Is(err, ErrLakeMismatch) {
			t.Errorf("%s vs bigger lake: err = %v, want ErrLakeMismatch", name, err)
		}
	}

	// A lake missing an indexed table fails too (same size, different set).
	swapped := lake.New("swapped")
	tables := b.Lake.Tables()
	for _, tab := range tables[1:] {
		swapped.MustAdd(tab)
	}
	swapped.MustAdd(extra)
	if _, err := LoadStarmie(bytes.NewReader(saved["starmie"]), swapped); !errors.Is(err, ErrLakeMismatch) {
		t.Errorf("starmie vs swapped lake: err = %v, want ErrLakeMismatch", err)
	}
	if _, err := LoadD3L(bytes.NewReader(saved["d3l"]), swapped); !errors.Is(err, ErrLakeMismatch) {
		t.Errorf("d3l vs swapped lake: err = %v, want ErrLakeMismatch", err)
	}
	if _, err := LoadTupleSearch(bytes.NewReader(saved["tuples"]), swapped.Tables()); !errors.Is(err, ErrLakeMismatch) {
		t.Errorf("tuples vs swapped tables: err = %v, want ErrLakeMismatch", err)
	}
}

func TestSaveRefusesOutOfSyncIndex(t *testing.T) {
	b := persistBench(t)
	s := NewStarmie(b.Lake)
	d := NewD3L(b.Lake)
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
	if err := d.Save(&bytes.Buffer{}); !errors.Is(err, ErrLakeMismatch) {
		t.Errorf("d3l save err = %v, want ErrLakeMismatch", err)
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
