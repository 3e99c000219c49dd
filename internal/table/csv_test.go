package table

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	tb := parksTable()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("parks", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tb.NumRows() || back.NumCols() != tb.NumCols() {
		t.Fatalf("round trip shape %dx%d, want %dx%d", back.NumRows(), back.NumCols(), tb.NumRows(), tb.NumCols())
	}
	for i := 0; i < tb.NumRows(); i++ {
		if strings.Join(back.Row(i), "|") != strings.Join(tb.Row(i), "|") {
			t.Errorf("row %d differs: %v vs %v", i, back.Row(i), tb.Row(i))
		}
	}
}

func TestReadCSVRaggedRows(t *testing.T) {
	in := "a,b,c\n1,2,3\n4,5\n6,7,8,9\n"
	tb, err := ReadCSV("ragged", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", tb.NumRows())
	}
	if tb.Cell(1, 2) != Null {
		t.Errorf("short row not padded: %q", tb.Cell(1, 2))
	}
	if tb.Cell(2, 2) != "8" {
		t.Errorf("long row not truncated correctly: %q", tb.Cell(2, 2))
	}
}

func TestReadCSVEmptyInput(t *testing.T) {
	if _, err := ReadCSV("empty", strings.NewReader("")); err == nil {
		t.Error("ReadCSV of empty input should error (no header)")
	}
}

func TestSaveAndLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "parks.csv")
	tb := parksTable()
	if err := tb.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "parks" {
		t.Errorf("loaded name = %q, want parks", back.Name)
	}
	if back.NumRows() != 3 {
		t.Errorf("loaded rows = %d, want 3", back.NumRows())
	}
}

func TestLoadCSVMissingFile(t *testing.T) {
	if _, err := LoadCSV(filepath.Join(os.TempDir(), "definitely-missing-dust.csv")); err == nil {
		t.Error("LoadCSV of missing file should error")
	}
}
