package lake

import (
	"path/filepath"
	"testing"

	"dust/internal/table"
)

func mkTable(name string, rows int) *table.Table {
	t := table.New(name, "a", "b")
	for i := 0; i < rows; i++ {
		t.MustAppendRow("x", "y")
	}
	return t
}

func TestAddGetLen(t *testing.T) {
	l := New("test")
	if err := l.Add(mkTable("one", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(mkTable("one", 2)); err == nil {
		t.Error("duplicate Add should error")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d", l.Len())
	}
	if l.Get("one") == nil {
		t.Error("Get returned nil for existing table")
	}
	if l.Get("missing") != nil {
		t.Error("Get returned non-nil for missing table")
	}
}

func TestTablesInsertionOrder(t *testing.T) {
	l := New("test")
	names := []string{"zeta", "alpha", "mid"}
	for _, n := range names {
		l.MustAdd(mkTable(n, 1))
	}
	got := l.Names()
	for i, n := range names {
		if got[i] != n {
			t.Fatalf("Names = %v, want insertion order %v", got, names)
		}
	}
	tabs := l.Tables()
	if len(tabs) != 3 || tabs[0].Name != "zeta" {
		t.Errorf("Tables order wrong: %v", tabs)
	}
}

func TestStats(t *testing.T) {
	l := New("test")
	l.MustAdd(mkTable("a", 3))
	l.MustAdd(mkTable("b", 5))
	s := l.Stats()
	if s.Tables != 2 || s.Columns != 4 || s.Tuples != 8 {
		t.Errorf("Stats = %+v", s)
	}
	if s.String() != "2 tables, 4 columns, 8 tuples" {
		t.Errorf("Stats.String = %q", s.String())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lakedir")
	l := New("orig")
	l.MustAdd(mkTable("t1", 2))
	l.MustAdd(mkTable("t2", 4))
	if err := l.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d tables, want 2", back.Len())
	}
	if back.Get("t1").NumRows() != 2 || back.Get("t2").NumRows() != 4 {
		t.Error("loaded table shapes wrong")
	}
	if back.Name != "lakedir" {
		t.Errorf("loaded lake name = %q", back.Name)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Load of missing dir should error")
	}
}

func TestRemovePreservesOrder(t *testing.T) {
	l := New("test")
	for _, n := range []string{"a", "b", "c", "d"} {
		l.MustAdd(mkTable(n, 1))
	}
	if err := l.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove("b"); err == nil {
		t.Error("removing an absent table should error")
	}
	want := []string{"a", "c", "d"}
	got := l.Names()
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
	if l.Get("b") != nil {
		t.Error("removed table still retrievable")
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
	// Re-adding after removal appends at the end, like a fresh Add.
	l.MustAdd(mkTable("b", 1))
	if names := l.Names(); names[len(names)-1] != "b" {
		t.Errorf("re-added table not last: %v", names)
	}
}

func TestRemoveFirstAndLast(t *testing.T) {
	l := New("test")
	for _, n := range []string{"a", "b", "c"} {
		l.MustAdd(mkTable(n, 1))
	}
	if err := l.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if names := l.Names(); len(names) != 1 || names[0] != "b" {
		t.Errorf("Names = %v, want [b]", names)
	}
}
