package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"dust/internal/lake"
	"dust/internal/table"
)

// Benchmark is a generated table-union-search benchmark: query tables, a
// data lake, unionability ground truth, and column-origin ground truth for
// the alignment experiments (Table 1).
type Benchmark struct {
	Name    string
	Queries []*table.Table
	Lake    *lake.Lake
	// Unionable maps a query table name to the names of its unionable lake
	// tables (tables generated from the same base, §6.1).
	Unionable map[string][]string
	// Origins maps any table name (query or lake) to per-column origin ids
	// of the form "<base>.<canonical column>"; two columns align iff their
	// origin ids are equal. Alt-schema (UGEN non-unionable) columns get
	// origins under "<base>#alt.<column>".
	Origins map[string][]string
	// RowOrigins maps a table name to the base-table row index behind each
	// of its rows. Two derived rows with the same base and base row index
	// describe the same entity (ground truth for the Ditto entity-matching
	// simulator, §6.3.2).
	RowOrigins map[string][]int
}

// Config controls benchmark generation. Zero values take defaults.
type Config struct {
	Seed           int64
	Domains        int     // number of base tables (<= len(domains()))
	BaseRows       int     // rows per base table
	TablesPerBase  int     // lake tables generated per base
	QueriesPerBase int     // query tables generated per base
	MinRows        int     // min rows per generated table
	MaxRows        int     // max rows per generated table
	MinCols        int     // min projected columns
	RenameProb     float64 // probability a kept column is renamed to a synonym
	PreserveRel    bool    // SANTOS mode: project relationship groups, not single columns
	AltPerQuery    int     // UGEN mode: same-topic non-unionable tables per query
	AltRows        int     // rows for alt-schema tables (UGEN tables are small)
	// NullProb injects missing values (real open data is full of them);
	// NoiseProb perturbs a cell's format (abbreviation, case). Both make
	// column alignment genuinely hard, keeping Table 1 off the ceiling.
	NullProb  float64
	NoiseProb float64
}

func (c *Config) defaults() {
	if c.Domains <= 0 || c.Domains > len(domains()) {
		c.Domains = len(domains())
	}
	if c.BaseRows <= 0 {
		c.BaseRows = 120
	}
	if c.TablesPerBase <= 0 {
		c.TablesPerBase = 10
	}
	if c.QueriesPerBase <= 0 {
		c.QueriesPerBase = 1
	}
	if c.MinRows <= 0 {
		c.MinRows = 20
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 60
	}
	if c.MinCols <= 0 {
		c.MinCols = 3
	}
	if c.RenameProb == 0 {
		c.RenameProb = 0.4
	}
	if c.AltRows <= 0 {
		c.AltRows = 10
	}
	if c.NullProb == 0 {
		c.NullProb = 0.08
	}
	if c.NoiseProb == 0 {
		c.NoiseProb = 0.15
	}
}

// baseTable materialises one domain into a base table plus its canonical
// per-column origin ids.
func baseTable(d domain, rows int, rng *rand.Rand) (*table.Table, []string) {
	headers := make([]string, len(d.columns))
	origins := make([]string, len(d.columns))
	for i, c := range d.columns {
		headers[i] = c.name
		origins[i] = d.name + "." + c.name
	}
	t := table.New(d.name, headers...)
	t.Base = d.name
	for r := 0; r < rows; r++ {
		t.MustAppendRow(d.genRow(rng)...)
	}
	return t, origins
}

// deriveTable selects and projects a base table the way TUS/SANTOS create
// benchmark tables, optionally renaming headers to synonyms. It returns the
// derived table and its per-column origin ids.
func deriveTable(name string, base *table.Table, d domain, baseOrigins []string, cfg Config, rng *rand.Rand) (*table.Table, []string, []int) {
	// Pick columns: either independent columns (TUS) or whole relationship
	// groups (SANTOS, preserving binary relationships).
	ncols := len(d.columns)
	keep := make([]bool, ncols)
	kept := 0
	if cfg.PreserveRel && len(d.relGroups) > 0 {
		order := rng.Perm(len(d.relGroups))
		for _, gi := range order {
			if kept >= cfg.MinCols && rng.Float64() < 0.4 {
				continue
			}
			for _, col := range d.relGroups[gi] {
				if !keep[col] {
					keep[col] = true
					kept++
				}
			}
		}
	} else {
		order := rng.Perm(ncols)
		take := cfg.MinCols + rng.Intn(ncols-cfg.MinCols+1)
		for _, col := range order[:take] {
			keep[col] = true
			kept++
		}
	}
	if kept < cfg.MinCols {
		if cfg.PreserveRel && len(d.relGroups) > 0 {
			// Add whole groups so relationship completeness is preserved.
			for _, g := range d.relGroups {
				if kept >= cfg.MinCols {
					break
				}
				for _, col := range g {
					if !keep[col] {
						keep[col] = true
						kept++
					}
				}
			}
		}
		for col := 0; col < ncols && kept < cfg.MinCols; col++ {
			if !keep[col] {
				keep[col] = true
				kept++
			}
		}
	}

	var colIdx []int
	for i := 0; i < ncols; i++ {
		if keep[i] {
			colIdx = append(colIdx, i)
		}
	}

	// Pick rows.
	span := cfg.MaxRows - cfg.MinRows
	nrows := cfg.MinRows
	if span > 0 {
		nrows += rng.Intn(span + 1)
	}
	if nrows > base.NumRows() {
		nrows = base.NumRows()
	}
	rowIdx := rng.Perm(base.NumRows())[:nrows]
	sort.Ints(rowIdx)

	out := &table.Table{Name: name, Base: base.Base}
	origins := make([]string, 0, len(colIdx))
	for _, ci := range colIdx {
		header := d.columns[ci].name
		if len(d.columns[ci].synonyms) > 0 && rng.Float64() < cfg.RenameProb {
			header = pick(rng, d.columns[ci].synonyms)
		}
		vals := make([]string, 0, len(rowIdx))
		for _, ri := range rowIdx {
			v := base.Cell(ri, ci)
			switch {
			case rng.Float64() < cfg.NullProb:
				v = table.Null
			case rng.Float64() < cfg.NoiseProb:
				v = perturbValue(v, rng)
			}
			vals = append(vals, v)
		}
		out.Columns = append(out.Columns, table.Column{Name: header, Values: vals})
		origins = append(origins, baseOrigins[ci])
	}
	return out, origins, rowIdx
}

// perturbValue applies one of the format corruptions found in real open
// data, each of which changes the value's token sequence: abbreviation to
// the first word, dropping the last word, or collapsing all words into one
// run-together token.
func perturbValue(v string, rng *rand.Rand) string {
	if v == "" {
		return v
	}
	sp := indexByte(v, ' ')
	switch rng.Intn(3) {
	case 0: // abbreviate: "River Park" -> "River."
		if sp > 0 {
			return v[:sp] + "."
		}
		return v
	case 1: // drop last word: "Vera Onate" -> "Vera"
		last := -1
		for i := 0; i < len(v); i++ {
			if v[i] == ' ' {
				last = i
			}
		}
		if last > 0 {
			return v[:last]
		}
		return v
	default: // run together: "West Lawn Park" -> "WestLawnPark"
		out := make([]byte, 0, len(v))
		for i := 0; i < len(v); i++ {
			if v[i] != ' ' {
				out = append(out, v[i])
			}
		}
		return string(out)
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// altTable generates a same-topic non-unionable table from a domain's alt
// schema (UGEN-style).
func altTable(name string, d domain, rows int, renameProb float64, rng *rand.Rand) (*table.Table, []string) {
	headers := make([]string, len(d.alt.columns))
	origins := make([]string, len(d.alt.columns))
	for i, c := range d.alt.columns {
		headers[i] = c.name
		if len(c.synonyms) > 0 && rng.Float64() < renameProb {
			headers[i] = pick(rng, c.synonyms)
		}
		origins[i] = d.name + "#alt." + c.name
	}
	t := table.New(name, headers...)
	t.Base = d.name + "#alt"
	for r := 0; r < rows; r++ {
		t.MustAppendRow(d.alt.genRow(rng)...)
	}
	return t, origins
}

// Generate builds a benchmark from the config. Table naming is
// "<base>_q<i>" for queries and "<base>_t<i>" for lake tables, so
// provenance is readable in experiment output.
func Generate(name string, cfg Config) *Benchmark {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	all := domains()[:cfg.Domains]

	b := &Benchmark{
		Name:       name,
		Lake:       lake.New(name),
		Unionable:  make(map[string][]string),
		Origins:    make(map[string][]string),
		RowOrigins: make(map[string][]int),
	}
	for _, d := range all {
		base, baseOrigins := baseTable(d, cfg.BaseRows, rng)

		var lakeNames []string
		for i := 0; i < cfg.TablesPerBase; i++ {
			tn := fmt.Sprintf("%s_t%d", d.name, i)
			t, origins, rows := deriveTable(tn, base, d, baseOrigins, cfg, rng)
			b.Lake.MustAdd(t)
			b.Origins[tn] = origins
			b.RowOrigins[tn] = rows
			lakeNames = append(lakeNames, tn)
		}
		for q := 0; q < cfg.QueriesPerBase; q++ {
			qn := fmt.Sprintf("%s_q%d", d.name, q)
			qt, origins, rows := deriveTable(qn, base, d, baseOrigins, cfg, rng)
			b.Queries = append(b.Queries, qt)
			b.Origins[qn] = origins
			b.RowOrigins[qn] = rows
			b.Unionable[qn] = lakeNames
		}
		if cfg.AltPerQuery > 0 {
			for i := 0; i < cfg.AltPerQuery; i++ {
				tn := fmt.Sprintf("%s_alt%d", d.name, i)
				t, origins := altTable(tn, d, cfg.AltRows, cfg.RenameProb, rng)
				b.Lake.MustAdd(t)
				b.Origins[tn] = origins
			}
		}
	}
	return b
}

// TUS returns the scaled-down TUS benchmark: many tables per base, arbitrary
// column projections (no relationship preservation).
func TUS() *Benchmark {
	return Generate("tus", Config{
		Seed:          101,
		TablesPerBase: 25,
		BaseRows:      160,
		MinRows:       20,
		MaxRows:       80,
	})
}

// TUSSampled returns the TUS-Sampled variant: fewer queries, 10 unionable
// tables per query (§6.1.1), sized so non-scalable baselines can run.
func TUSSampled() *Benchmark {
	return Generate("tus-sampled", Config{
		Seed:          202,
		Domains:       6,
		TablesPerBase: 10,
		BaseRows:      120,
		MinRows:       15,
		MaxRows:       50,
	})
}

// SANTOS returns the SANTOS-style benchmark: relationship-group projections
// so unionable tables share binary relationships (§6.1.2). Queries here have
// more rows, matching SANTOS's larger tables.
func SANTOS() *Benchmark {
	return Generate("santos", Config{
		Seed:           303,
		Domains:        10,
		TablesPerBase:  11,
		QueriesPerBase: 1,
		BaseRows:       200,
		MinRows:        40,
		MaxRows:        120,
		PreserveRel:    true,
	})
}

// UGEN returns the UGEN-V1-style benchmark: small LLM-flavoured tables, 10
// unionable plus 10 same-topic non-unionable tables per query (§6.1.3).
func UGEN() *Benchmark {
	return Generate("ugen-v1", Config{
		Seed:           404,
		Domains:        10,
		TablesPerBase:  10,
		QueriesPerBase: 1,
		BaseRows:       60,
		MinRows:        8,
		MaxRows:        12,
		MinCols:        3,
		AltPerQuery:    10,
		AltRows:        10,
	})
}

// IMDB returns the §6.6 case-study corpus: one small movie query table and
// 20 unionable tables sampled from a ~480-row movie base table. The lake
// reproduces the redundancy structure the case study depends on: several
// tables are near-copies of the query's region of the base (real data
// lakes hold many copies and versions of the same data, §1), so the
// tables most similar to the query contribute the fewest novel values,
// while the remaining tables cover overlapping windows across the base.
func IMDB() *Benchmark {
	cfg := Config{
		Seed:       505,
		BaseRows:   480,
		MinCols:    8, // keep all movie columns
		RenameProb: 0.15,
	}
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var movieDomain domain
	for _, d := range domains() {
		if d.name == "movies" {
			movieDomain = d
			break
		}
	}
	b := &Benchmark{
		Name:       "imdb",
		Lake:       lake.New("imdb"),
		Unionable:  make(map[string][]string),
		Origins:    make(map[string][]string),
		RowOrigins: make(map[string][]int),
	}
	base, baseOrigins := baseTable(movieDomain, cfg.BaseRows, rng)

	// windowTable derives one lake table whose rows come from a window of
	// the base.
	windowTable := func(name string, lo, hi, minRows, maxRows int) {
		wcfg := cfg
		wcfg.MinRows, wcfg.MaxRows = minRows, maxRows
		window := make([]int, 0, hi-lo)
		for r := lo; r < hi && r < base.NumRows(); r++ {
			window = append(window, r)
		}
		sub, err := base.Select(name+"_window", window)
		if err != nil {
			panic(err)
		}
		sub.Base = base.Base
		t, origins, rows := deriveTable(name, sub, movieDomain, baseOrigins, wcfg, rng)
		// Map window-relative row origins back to base rows.
		for i := range rows {
			rows[i] = window[rows[i]]
		}
		b.Lake.MustAdd(t)
		b.Origins[name] = origins
		b.RowOrigins[name] = rows
		b.Unionable["movies_q0"] = append(b.Unionable["movies_q0"], name)
	}

	// Six near-copy tables over the query's region (heavy redundancy).
	for i := 0; i < 6; i++ {
		windowTable(fmt.Sprintf("movies_t%d", i), 0, 45, 25, 35)
	}
	// Fourteen overlapping windows across the rest of the base.
	for i := 6; i < 20; i++ {
		lo := (i - 6) * 30
		windowTable(fmt.Sprintf("movies_t%d", i), lo, lo+150, 80, 110)
	}

	// The query samples the same region the near-copy tables cover.
	qcfg := cfg
	qcfg.MinRows, qcfg.MaxRows = 15, 20
	qWindow := make([]int, 45)
	for i := range qWindow {
		qWindow[i] = i
	}
	qBase, err := base.Select("q_window", qWindow)
	if err != nil {
		panic(err)
	}
	qBase.Base = base.Base
	qt, origins, rows := deriveTable("movies_q0", qBase, movieDomain, baseOrigins, qcfg, rng)
	b.Queries = append(b.Queries, qt)
	b.Origins["movies_q0"] = origins
	b.RowOrigins["movies_q0"] = rows
	return b
}

// IsUnionableTable reports whether two tables of the benchmark are
// unionable under the ground truth (same base, alt bases never unionable
// with the primary base).
func (b *Benchmark) IsUnionableTable(a, t *table.Table) bool {
	return a.Base != "" && a.Base == t.Base
}
