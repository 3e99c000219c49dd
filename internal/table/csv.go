package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// WriteCSV writes the table (header row first) to w.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers()); err != nil {
		return fmt.Errorf("table %s: write header: %w", t.Name, err)
	}
	for i := 0; i < t.NumRows(); i++ {
		if err := cw.Write(t.Row(i)); err != nil {
			return fmt.Errorf("table %s: write row %d: %w", t.Name, i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table to path, creating parent directories as needed.
func (t *Table) SaveCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCSV parses a table from r. The first record is the header. The table
// name is taken from the name argument.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table %s: read header: %w", name, err)
	}
	t := New(name, header...)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table %s: read row: %w", name, err)
		}
		// Tolerate ragged rows by padding/truncating to the header arity,
		// as real data lake CSVs are frequently ragged.
		row := make(Tuple, len(header))
		for i := range row {
			if i < len(rec) {
				row[i] = rec[i]
			} else {
				row[i] = Null
			}
		}
		if err := t.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// LoadCSV reads a table from a CSV file; the table is named after the file
// basename without extension.
func LoadCSV(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return ReadCSV(name, f)
}
