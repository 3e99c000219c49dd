package datagen

// LakeSpec is the lake-scale half of datagen: where Config/Generate
// reproduce the paper's benchmark derivation (base tables, selections,
// ground truth), LakeSpec manufactures *workload substrate* — lakes big
// enough to exercise serving, the index at scale, and load harnesses, with
// the value skew, cross-table key structure, and dirty-data pathologies of
// real open-data lakes. Every table is a pure function of (spec, index):
// table i is generated from its own seeded RNG stream, so generation
// parallelises with no cross-worker coordination and the output is
// bit-identical for any Workers value.

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"dust/internal/lake"
	"dust/internal/par"
	"dust/internal/table"
)

// DirtySpec configures the generator's dirty-data modes as per-cell (or,
// for Ragged, per-row) probabilities in [0, 1]. Key and foreign-key
// columns are never dirtied — FK integrity is a generator invariant the
// property tests pin — and the modes are mutually exclusive per cell,
// checked in field order below, so each rate is independently testable.
type DirtySpec struct {
	// Ragged is the probability that a CSV-serialized row has the wrong
	// arity (fields dropped or appended). It only applies to the CSV
	// rendering (LakeSpec.CSV): the in-memory relational model has fixed
	// arity by construction, exactly like a lake whose corruption lives
	// in its files and is healed (padded/truncated) at ingestion.
	Ragged float64
	// MixedTypes is the probability that a numeric cell (quantity, year)
	// holds a non-numeric token ("twelve", "12px", "#REF!").
	MixedTypes float64
	// Unicode is the probability that a textual cell holds a non-ASCII
	// token (accented latin, CJK, emoji). The clean vocabulary pools are
	// pure ASCII, so any non-ASCII cell is by construction a defect.
	Unicode float64
	// Null is the probability that a cell holds a spelled-out null token
	// ("NULL", "n/a", "nan", "-", "none").
	Null float64
	// Empty is the probability that a cell is the empty string
	// (table.Null).
	Empty float64
}

// active reports whether any dirty mode is enabled.
func (d DirtySpec) active() bool {
	return d.Ragged > 0 || d.MixedTypes > 0 || d.Unicode > 0 || d.Null > 0 || d.Empty > 0
}

// LakeSpec describes a synthetic data lake at serving scale. The zero
// value is usable: Generate applies the defaults documented per field.
// All derived artifacts (tables, CSV bytes, queries) are deterministic
// functions of the spec — same spec, same bytes, at any Workers count.
type LakeSpec struct {
	// Name names the generated lake. Default "synthlake".
	Name string
	// Seed drives all randomness. Two specs differing only in Seed
	// produce entirely different lakes.
	Seed int64
	// Tables is the number of tables. Default 100.
	Tables int
	// Rows is the mean rows per table; each table draws its row count
	// uniformly from [Rows/2, 3*Rows/2]. Default 40.
	Rows int
	// Cols caps the data columns per table (minimum and default 6; at
	// least 2 data columns are always present).
	Cols int
	// ZipfS is the zipfian skew exponent for categorical values and FK
	// references. Values <= 1 disable skew (uniform); the paper-adjacent
	// "realistic lake" setting is 1.3–2. Default 1.5.
	ZipfS float64
	// ZipfDomain is the number of distinct values a categorical column
	// draws from. Default 1000.
	ZipfDomain int
	// Parents is the number of key-bearing parent tables (named p0000…),
	// the FK targets. Default Tables/50 + 1, clamped to Tables.
	Parents int
	// FKFraction is the probability that a non-parent table carries a
	// foreign-key column referencing a random parent. Default 0.
	FKFraction float64
	// Dirty configures the dirty-data modes. Zero value means clean.
	Dirty DirtySpec
	// Workers bounds generation parallelism (<= 0 selects the
	// GOMAXPROCS default). It never affects the generated bytes.
	Workers int
}

// Normalized returns a copy of the spec with all defaults applied — the
// spec every generator method actually runs under. Callers that index
// tables (e.g. a load harness minting fresh tables past spec.Tables)
// normalize first so the field values match what Generate used.
func (s LakeSpec) Normalized() LakeSpec {
	if s.Name == "" {
		s.Name = "synthlake"
	}
	if s.Tables <= 0 {
		s.Tables = 100
	}
	if s.Rows <= 0 {
		s.Rows = 40
	}
	if s.Cols < 6 {
		s.Cols = 6
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.5
	}
	if s.ZipfDomain <= 1 {
		s.ZipfDomain = 1000
	}
	if s.Parents <= 0 {
		s.Parents = s.Tables/50 + 1
	}
	if s.Parents > s.Tables {
		s.Parents = s.Tables
	}
	if s.FKFraction < 0 {
		s.FKFraction = 0
	}
	if s.FKFraction > 1 {
		s.FKFraction = 1
	}
	return s
}

// Generate materialises the whole lake. Tables are generated in parallel
// (bounded by Workers) and inserted in index order, so the lake layout
// and every table's bytes are independent of the worker count.
func (s LakeSpec) Generate() *lake.Lake {
	s = s.Normalized()
	parentRows := s.parentRows()
	tables := make([]*table.Table, s.Tables)
	par.ForChunks(s.Workers, s.Tables, func(lo, hi int) {
		// One source a chunk, re-seeded to each table's content stream: the
		// draws of a fresh source, without allocating its 5 KB per table.
		rng := rand.New(rand.NewSource(0))
		for i := lo; i < hi; i++ {
			rng.Seed(s.streamSeed(i, saltContent))
			tables[i] = s.genTable(i, rng, parentRows)
		}
	})
	l := lake.New(s.Name)
	for _, t := range tables {
		l.MustAdd(t)
	}
	return l
}

// Table returns table i regenerated from its RNG stream. Indices past
// Tables are valid and yield fresh tables from the same distribution —
// the load harness uses them as an endless deterministic supply of
// tables to PUT that collide with nothing in the generated lake.
func (s LakeSpec) Table(i int) *table.Table {
	s = s.Normalized()
	return s.genTable(i, s.rngFor(i, saltContent), nil)
}

// TableName returns the name table i generates under without generating
// it: parents are "p%04d", the rest "t%06d".
func (s LakeSpec) TableName(i int) string {
	s = s.Normalized()
	if i < s.Parents {
		return fmt.Sprintf("p%04d", i)
	}
	return fmt.Sprintf("t%06d", i)
}

// Query derives query table i: a small random row sample of lake table
// i mod Tables, so every query has genuine unionable matter in the lake.
func (s LakeSpec) Query(i int) *table.Table {
	s = s.Normalized()
	base := s.genTable(i%s.Tables, s.rngFor(i%s.Tables, saltContent), nil)
	rng := s.rngFor(i, saltQuery)
	n := 4 + rng.Intn(8)
	if n > base.NumRows() {
		n = base.NumRows()
	}
	rows := rng.Perm(base.NumRows())[:n]
	sort.Ints(rows)
	q, err := base.Select(fmt.Sprintf("q%05d", i), rows)
	if err != nil {
		panic(err) // indices come from Perm over NumRows — cannot be out of range
	}
	return q
}

// CSV renders table i as CSV bytes the way a dirty lake stores it: when
// Dirty.Ragged > 0, some rows drop trailing fields or grow extra junk
// fields. The in-memory table from Generate stays fixed-arity; ragged
// corruption exists only at this serialization boundary, which is where
// real lakes have it (table.ReadCSV heals it by padding/truncating).
func (s LakeSpec) CSV(i int) []byte {
	s = s.Normalized()
	t := s.genTable(i, s.rngFor(i, saltContent), nil)
	rng := s.rngFor(i, saltRagged)
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	_ = w.Write(t.Headers())
	for r := 0; r < t.NumRows(); r++ {
		rec := []string(t.Row(r))
		if s.Dirty.Ragged > 0 && rng.Float64() < s.Dirty.Ragged {
			if rng.Intn(2) == 0 && len(rec) > 1 {
				rec = rec[:1+rng.Intn(len(rec)-1)]
			} else {
				for extra := 1 + rng.Intn(2); extra > 0; extra-- {
					rec = append(rec, pick(rng, mixedTokens))
				}
			}
		}
		_ = w.Write(rec)
	}
	w.Flush()
	return buf.Bytes()
}

// ParseLakeSpec parses the comma-separated "key=value" spec string the
// CLIs accept, e.g. "tables=1000,rows=40,seed=7,zipf=1.4,fk=0.25,
// ragged=0.05". Keys: name, seed, tables, rows, cols, zipf, domain,
// parents, fk, ragged, mixed, unicode, null, empty. Unknown keys and
// unparseable values are errors; omitted keys take the LakeSpec
// defaults.
func ParseLakeSpec(str string) (LakeSpec, error) {
	var s LakeSpec
	if strings.TrimSpace(str) == "" {
		return s, nil
	}
	for _, kv := range strings.Split(str, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return s, fmt.Errorf("lakespec: %q is not key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "name":
			s.Name = val
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "tables":
			s.Tables, err = strconv.Atoi(val)
		case "rows":
			s.Rows, err = strconv.Atoi(val)
		case "cols":
			s.Cols, err = strconv.Atoi(val)
		case "zipf":
			s.ZipfS, err = strconv.ParseFloat(val, 64)
		case "domain":
			s.ZipfDomain, err = strconv.Atoi(val)
		case "parents":
			s.Parents, err = strconv.Atoi(val)
		case "fk":
			s.FKFraction, err = strconv.ParseFloat(val, 64)
		case "ragged":
			s.Dirty.Ragged, err = strconv.ParseFloat(val, 64)
		case "mixed":
			s.Dirty.MixedTypes, err = strconv.ParseFloat(val, 64)
		case "unicode":
			s.Dirty.Unicode, err = strconv.ParseFloat(val, 64)
		case "null":
			s.Dirty.Null, err = strconv.ParseFloat(val, 64)
		case "empty":
			s.Dirty.Empty, err = strconv.ParseFloat(val, 64)
		default:
			return s, fmt.Errorf("lakespec: unknown key %q", key)
		}
		if err != nil {
			return s, fmt.Errorf("lakespec: bad value for %q: %v", key, err)
		}
	}
	return s, nil
}

// String renders the spec back in ParseLakeSpec's key=value form (only
// non-default dirty rates included) — the lake identity the benchmark
// hashes into inputs_sha256.
func (s LakeSpec) String() string {
	s = s.Normalized()
	parts := []string{
		fmt.Sprintf("tables=%d", s.Tables),
		fmt.Sprintf("rows=%d", s.Rows),
		fmt.Sprintf("seed=%d", s.Seed),
		fmt.Sprintf("zipf=%g", s.ZipfS),
		fmt.Sprintf("parents=%d", s.Parents),
		fmt.Sprintf("fk=%g", s.FKFraction),
	}
	for _, d := range []struct {
		key  string
		rate float64
	}{
		{"ragged", s.Dirty.Ragged}, {"mixed", s.Dirty.MixedTypes},
		{"unicode", s.Dirty.Unicode}, {"null", s.Dirty.Null}, {"empty", s.Dirty.Empty},
	} {
		if d.rate > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", d.key, d.rate))
		}
	}
	return strings.Join(parts, ",")
}

// ---------------------------------------------------------------------------
// Per-table generation. Everything below derives from (Seed, table index)
// via independent splitmix-derived RNG streams.

// RNG stream salts: one stream per derived artifact so e.g. the ragged
// corruption pattern never perturbs the table content stream.
const (
	saltContent uint64 = 0x9e3779b97f4a7c15
	saltRagged  uint64 = 0xbf58476d1ce4e5b9
	saltQuery   uint64 = 0x94d049bb133111eb
)

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash used
// to derive independent per-table RNG seeds from (Seed, index, salt).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rngFor returns table i's RNG stream for one artifact (content, ragged
// serialization, query sampling). Streams are independent across tables
// and salts, which is what makes parallel generation embarrassingly so.
func (s LakeSpec) rngFor(i int, salt uint64) *rand.Rand {
	return rand.New(rand.NewSource(s.streamSeed(i, salt)))
}

// streamSeed is the seed of table i's stream for one artifact.
func (s LakeSpec) streamSeed(i int, salt uint64) int64 {
	return int64(mix64(mix64(uint64(s.Seed)^salt) ^ uint64(i+1)))
}

// drawRows draws a table's row count: uniform in [Rows/2, 3*Rows/2],
// always at least 1. It must be the FIRST draw on the content stream —
// rowsFor replays just this prefix so a child table can size FK
// references into a parent without generating it.
func (s LakeSpec) drawRows(rng *rand.Rand) int {
	rows := s.Rows/2 + rng.Intn(s.Rows+1)
	if rows < 1 {
		rows = 1
	}
	return rows
}

// rowsFor returns table i's row count without generating it.
func (s LakeSpec) rowsFor(i int) int {
	return s.drawRows(s.rngFor(i, saltContent))
}

// parentRows returns every parent's row count when the spec has FK tables,
// else nil: Generate draws each once, instead of re-seeding a parent's
// stream for every FK table that references it.
func (s LakeSpec) parentRows() []int {
	if s.FKFraction == 0 {
		return nil
	}
	rows := make([]int, s.Parents)
	for p := range rows {
		rows[p] = s.rowsFor(p)
	}
	return rows
}

// parentKey is the formulaic primary key of parent p's row r. Being
// derivable from (p, r) alone, a child table can emit valid FK values
// while generating in parallel with (or without) its parent.
func parentKey(p, r int) string {
	return "K" + zeroPad(p, 4) + "-" + zeroPad(r, 6)
}

// colKind enumerates the generator's column archetypes.
type colKind int

const (
	colEntity   colKind = iota // compound entity name
	colPerson                  // "First Last"
	colCity                    // city of a correlated (city, country) pair
	colCountry                 // country matching the row's city
	colCategory                // zipf-skewed categorical "cat_<rank>"
	colQuantity                // uniform integer
	colYear                    // uniform year
	colDate                    // ISO date
	colKey                     // parent primary key (never dirtied)
	colFK                      // foreign key into a parent (never dirtied)
)

// numeric reports whether the kind generates numeric-typed cells — the
// cells MixedTypes corruption applies to.
func (k colKind) numeric() bool { return k == colQuantity || k == colYear }

// textual reports whether the kind generates free-text cells — the cells
// Unicode corruption applies to.
func (k colKind) textual() bool {
	switch k {
	case colEntity, colPerson, colCity, colCountry, colCategory:
		return true
	}
	return false
}

// keylike reports whether the kind is identity-bearing and therefore
// exempt from every dirty mode.
func (k colKind) keylike() bool { return k == colKey || k == colFK }

// tableSpec is the derived shape of one table: its name, row count,
// column kinds/headers, and FK target (parent < 0 means none).
type tableSpec struct {
	name       string
	rows       int
	kinds      []colKind
	headers    []string
	parent     int
	parentRows int
}

// headerPools gives each kind a small synonym pool so generated lakes
// exercise header-synonym alignment the way the benchmark corpus does.
var headerPools = map[colKind][]string{
	colEntity:   {"Name", "Title", "Label", "Item"},
	colPerson:   {"Owner", "Contact", "Manager", "Curator"},
	colCity:     {"City", "Location", "Municipality"},
	colCountry:  {"Country", "Nation"},
	colCategory: {"Category", "Segment", "Group", "Class"},
	colQuantity: {"Quantity", "Total", "Visitors", "Units"},
	colYear:     {"Year", "Established", "Founded"},
	colDate:     {"Date", "Updated", "Recorded"},
}

// extraKinds are the kinds the schema sampler draws optional columns
// from (colCity implies an adjacent colCountry — the correlated pair).
var extraKinds = []colKind{colPerson, colCity, colQuantity, colYear, colDate, colCategory}

// Entity-name pools: unions of the domain vocabularies, shared across
// the whole lake so value overlap stays a weak unionability signal.
var (
	entityAdjs = []string{
		"Sunny", "Pebble", "Golden", "Silver", "Crimson", "Azure", "Wandering",
		"Quiet", "Northern", "Coastal", "Ancient", "Modern", "Hidden", "Grand",
		"Twin", "Upper", "Lower", "Eastern", "Western", "Central",
	}
	entityNouns = []string{
		"Creek", "Ridge", "Harbor", "Meadow", "Summit", "Archive", "Depot",
		"Garden", "Market", "Station", "Junction", "Crossing", "Hollow",
		"Terrace", "Annex", "Pavilion", "Reserve", "Quarter", "Landing", "Plaza",
	}
)

// buildSpec derives table i's shape from the content RNG stream. The
// draw order (rows first, then FK decision, then schema) is part of the
// determinism contract: rowsFor replays the first draw only. A FK table
// reads its parent's row count from parentRows (parentRows()'s result) or,
// when that is nil, draws it with rowsFor.
func (s LakeSpec) buildSpec(i int, rng *rand.Rand, parentRows []int) tableSpec {
	ts := tableSpec{parent: -1, rows: s.drawRows(rng)}
	addCol := func(k colKind) {
		name := pick(rng, headerPools[k])
		for _, h := range ts.headers { // de-dup repeated headers in-place
			if h == name {
				name = fmt.Sprintf("%s %d", name, len(ts.headers))
				break
			}
		}
		ts.kinds = append(ts.kinds, k)
		ts.headers = append(ts.headers, name)
	}
	if i < s.Parents {
		ts.name = fmt.Sprintf("p%04d", i)
		ts.kinds = append(ts.kinds, colKey)
		ts.headers = append(ts.headers, "record_id")
	} else {
		ts.name = fmt.Sprintf("t%06d", i)
		if s.FKFraction > 0 && rng.Float64() < s.FKFraction {
			ts.parent = rng.Intn(s.Parents)
			if parentRows != nil {
				ts.parentRows = parentRows[ts.parent]
			} else {
				ts.parentRows = s.rowsFor(ts.parent)
			}
			ts.kinds = append(ts.kinds, colFK)
			ts.headers = append(ts.headers, fmt.Sprintf("p%04d_id", ts.parent))
		}
	}
	// Every table gets an entity column and a (zipf-skewed) categorical
	// column — the invariant the skew property test leans on — plus up to
	// Cols-2 extra data columns.
	addCol(colEntity)
	addCol(colCategory)
	for extra := rng.Intn(s.Cols - 1); extra > 0; extra-- {
		k := pick(rng, extraKinds)
		if k == colCity {
			addCol(colCity)
			addCol(colCountry)
			extra--
			continue
		}
		addCol(k)
	}
	return ts
}

// zipfSampler returns a sampler over [0, n) honoring ZipfS: a true
// rand.Zipf when ZipfS > 1, uniform otherwise (rand.Zipf requires s>1).
func (s LakeSpec) zipfSampler(rng *rand.Rand, n int) func() int {
	if n <= 1 {
		return func() int { return 0 }
	}
	if s.ZipfS > 1 {
		z := rand.NewZipf(rng, s.ZipfS, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

// Dirty-data token pools. These sets are disjoint from each other and
// from everything the clean generators emit (which is pure ASCII and
// never spells a null), so the property tests can count defects by set
// membership.
var (
	nullTokens    = []string{"NULL", "N/A", "nan", "-", "none"}
	mixedTokens   = []string{"twelve", "12px", "one hundred", "1.2.3", "#REF!", "NaN-ish"}
	unicodeTokens = []string{
		"café au lait", "jalapeño", "Zürich", "北京", "Köln",
		"smörgåsbord", "Москва", "🦉 owl", "naïve", "İstanbul",
	}
)

// dirtyCell corrupts one clean cell per DirtySpec. Modes are checked in
// a fixed order and at most one fires, so each configured rate is the
// per-eligible-cell probability (conditioned on earlier modes missing).
func (s LakeSpec) dirtyCell(rng *rand.Rand, k colKind, v string) string {
	if k.keylike() {
		return v
	}
	d := s.Dirty
	switch {
	case d.Empty > 0 && rng.Float64() < d.Empty:
		return table.Null
	case d.Null > 0 && rng.Float64() < d.Null:
		return pick(rng, nullTokens)
	case d.MixedTypes > 0 && k.numeric() && rng.Float64() < d.MixedTypes:
		return pick(rng, mixedTokens)
	case d.Unicode > 0 && k.textual() && rng.Float64() < d.Unicode:
		return pick(rng, unicodeTokens)
	}
	return v
}

// genTable generates table i in full from rng, a source at the start of
// table i's content stream, with parentRows as buildSpec takes it.
func (s LakeSpec) genTable(i int, rng *rand.Rand, parentRows []int) *table.Table {
	ts := s.buildSpec(i, rng, parentRows)
	catRank := s.zipfSampler(rng, s.ZipfDomain)
	var fkRank func() int
	if ts.parent >= 0 {
		fkRank = s.zipfSampler(rng, ts.parentRows)
	}
	t := table.New(ts.name, ts.headers...)
	for j := range t.Columns {
		t.Columns[j].Values = make([]string, 0, ts.rows)
	}
	dirty := s.Dirty.active()
	row := make(table.Tuple, len(ts.kinds))
	for r := 0; r < ts.rows; r++ {
		var geoCountry string
		for j, k := range ts.kinds {
			switch k {
			case colKey:
				row[j] = parentKey(i, r)
			case colFK:
				row[j] = parentKey(ts.parent, fkRank())
			case colEntity:
				row[j] = compound(rng, entityAdjs, entityNouns, "")
			case colPerson:
				row[j] = person(rng)
			case colCity:
				rec := pick(rng, cityRecords)
				row[j] = rec.City
				geoCountry = rec.Country
			case colCountry:
				row[j] = geoCountry // correlated: set by the preceding city column
			case colCategory:
				row[j] = "cat_" + strconv.Itoa(catRank())
			case colQuantity:
				row[j] = count(rng, 1, 99999)
			case colYear:
				row[j] = year(rng, 1900, 2024)
			case colDate:
				row[j] = date(rng, 2000, 2024)
			}
			if dirty {
				row[j] = s.dirtyCell(rng, k, row[j])
			}
		}
		t.MustAppendRow(row...)
	}
	return t
}
