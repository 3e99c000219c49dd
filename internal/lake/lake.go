// Package lake provides the data-lake container: a named collection of
// tables with CSV directory persistence and the summary statistics reported
// in the paper's Fig. 5 (tables, columns, tuples per benchmark).
package lake

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dust/internal/table"
)

// Typed failures of the lake mutation surface, for callers (HTTP layers)
// that map them to distinct statuses.
var (
	// ErrDuplicateTable reports Add of a name the lake holds.
	ErrDuplicateTable = errors.New("lake: duplicate table")
	// ErrUnknownTable reports Remove of a name the lake never held.
	ErrUnknownTable = errors.New("lake: no such table")
)

// Lake is an in-memory data lake: a set of tables addressable by name.
type Lake struct {
	Name   string
	tables map[string]*table.Table
	order  []string // insertion order, for deterministic iteration
}

// New creates an empty lake.
func New(name string) *Lake {
	return &Lake{Name: name, tables: make(map[string]*table.Table)}
}

// Add inserts a table; adding a second table with the same name is an
// error because the name is the table's identity within the lake.
//
// A table is immutable once it is in a lake: Clone shares the table objects
// between a lake and its copy-on-write shadows, and search indexes and the
// alignment column-vector memo (internal/align) key derived state by the
// object's name and identity without watching its content. To change a
// table, Remove it and Add a new object.
func (l *Lake) Add(t *table.Table) error {
	if _, ok := l.tables[t.Name]; ok {
		return fmt.Errorf("lake %s: %w: %q", l.Name, ErrDuplicateTable, t.Name)
	}
	l.tables[t.Name] = t
	l.order = append(l.order, t.Name)
	return nil
}

// MustAdd inserts a table and panics on duplicates; for generators.
func (l *Lake) MustAdd(t *table.Table) {
	if err := l.Add(t); err != nil {
		panic(err)
	}
}

// Remove deletes the named table; removing an absent table is an error.
// The insertion order of the remaining tables is preserved, so iteration
// stays deterministic across arbitrary Add/Remove interleavings.
func (l *Lake) Remove(name string) error {
	if _, ok := l.tables[name]; !ok {
		return fmt.Errorf("lake %s: %w: %q", l.Name, ErrUnknownTable, name)
	}
	delete(l.tables, name)
	for i, n := range l.order {
		if n == name {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	return nil
}

// Clone returns a lake owning its own name map and iteration order but
// sharing the table objects (which nothing in the repo mutates after
// insertion): Add/Remove on the clone never observe or disturb the
// original, so a serving layer can mutate a copy-on-write shadow while
// queries keep reading the original lake lock-free.
func (l *Lake) Clone() *Lake {
	c := &Lake{
		Name:   l.Name,
		tables: make(map[string]*table.Table, len(l.tables)),
		order:  append([]string(nil), l.order...),
	}
	for n, t := range l.tables {
		c.tables[n] = t
	}
	return c
}

// Get returns the named table, or nil.
func (l *Lake) Get(name string) *table.Table { return l.tables[name] }

// Len returns the number of tables.
func (l *Lake) Len() int { return len(l.order) }

// Tables returns all tables in insertion order.
func (l *Lake) Tables() []*table.Table {
	out := make([]*table.Table, 0, len(l.order))
	for _, n := range l.order {
		out = append(out, l.tables[n])
	}
	return out
}

// Names returns the table names in insertion order.
func (l *Lake) Names() []string {
	out := make([]string, len(l.order))
	copy(out, l.order)
	return out
}

// Stats summarises a lake the way Fig. 5 reports benchmarks.
type Stats struct {
	Tables  int
	Columns int
	Tuples  int
}

// Stats computes the lake's summary statistics.
func (l *Lake) Stats() Stats {
	var s Stats
	for _, t := range l.Tables() {
		s.Tables++
		s.Columns += t.NumCols()
		s.Tuples += t.NumRows()
	}
	return s
}

// String renders stats in a compact human form.
func (s Stats) String() string {
	return fmt.Sprintf("%d tables, %d columns, %d tuples", s.Tables, s.Columns, s.Tuples)
}

// Save writes every table as <dir>/<name>.csv.
func (l *Lake) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range l.Tables() {
		if err := t.SaveCSV(filepath.Join(dir, t.Name+".csv")); err != nil {
			return fmt.Errorf("lake %s: save %s: %w", l.Name, t.Name, err)
		}
	}
	return nil
}

// Load reads every *.csv file in dir (non-recursively) into a new lake
// named after the directory. Files are loaded in sorted order so the lake
// layout is deterministic.
func Load(dir string) (*Lake, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	l := New(filepath.Base(dir))
	for _, f := range files {
		t, err := table.LoadCSV(filepath.Join(dir, f))
		if err != nil {
			return nil, fmt.Errorf("lake %s: load %s: %w", l.Name, f, err)
		}
		if err := l.Add(t); err != nil {
			return nil, err
		}
	}
	return l, nil
}
