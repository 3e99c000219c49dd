package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"dust/internal/datagen"
	"dust/internal/table"
)

// topK is the k of every search the benchmark sends.
const topK = 10

// sloLimit is the latency limit behind search_slo_share: a search meets it
// when its 200 arrives within this long of its (scheduled) send time. It is
// above every workload's uncontended tail, so the share falls only when
// requests queue or fail.
const sloLimit = 500 * time.Millisecond

// A query's width class is its column count clamped to [minWidth, maxWidth].
// The pool holds equally many queries of each class: the exact scan's cost
// grows with the query's width, and a pool drawn without regard to it gives
// medians that differ by a fifth from one seed's lake to the next.
const (
	minWidth     = 3
	maxWidth     = 7
	widthClasses = maxWidth - minWidth + 1
)

func widthClass(cols int) int { return min(max(cols, minWidth), maxWidth) - minWidth }

// lakeKnobs are the LakeSpec knobs every workload shares: the
// BENCH_load / ROADMAP reference lake's skew, key structure and dirt.
const lakeKnobs = "zipf=1.5,parents=11,fk=0.3,null=0.01"

// workload is one traffic mix against one lake shape.
type workload struct {
	name   string
	tables int
	rows   int
	// perClass is how many search bodies of each width class the pool
	// holds. The closed loops take 16, 80 queries in all: what a query costs
	// varies by a third from one to the next, and the median over fewer
	// moved too much from one seed's lake to another's. The open loop takes
	// 8, so that bodies repeat often enough to meet the cache.
	perClass int
	// flags are the dustserve flags beyond -spec/-addr/-query-workers/-inflight.
	flags []string
	// open selects the open-loop mixed traffic; otherwise one closed-loop
	// client cycles through the query pool.
	open bool
}

// The four workloads. Each stresses a different share of the request; the
// reasons are in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "balanced", tables: 500, rows: 40, perClass: 16, flags: []string{"-cache", "0"}},
	{name: "tall", tables: 300, rows: 120, perClass: 16, flags: []string{"-cache", "0"}},
	{name: "wide", tables: 8000, rows: 12, perClass: 16, flags: []string{"-cache", "0"}},
	{name: "serve_mixed", tables: 500, rows: 40, perClass: 8, open: true,
		flags: []string{"-cache", "1024", "-degrade-threshold", "0.5"}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config sizes a run. The defaults are the benchmark; the smoke test
// shrinks them.
type config struct {
	tables    int           // overrides workload.tables when > 0
	perClass  int           // overrides workload.perClass when > 0
	spare     int           // extra candidates per class, as far as the lake has them, in case some are answered 422
	rounds    int           // fresh servers per run; latencies pool, setup_s is their median
	mutations int           // PUT+DELETE pairs after each closed-loop window, other tables each round
	rate      float64       // open-loop arrivals per second
	window    time.Duration // measured time per run, split over the rounds
}

func defaultConfig(seconds int) config {
	return config{spare: 16, rounds: 3, mutations: 12,
		rate: 10, window: time.Duration(seconds) * time.Second}
}

type tableWire struct {
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// query is one candidate search: spec.Query(index) in wire form.
type query struct {
	index int
	class int // width class
	tableWire
	body []byte
}

// table rebuilds the query the way the server's decoder does, so the
// in-process reference sees exactly what the served pipeline saw.
func (q *query) table() *table.Table {
	t := table.New("query", q.Headers...)
	for _, r := range q.Rows {
		t.MustAppendRow(r...)
	}
	return t
}

// put is one fresh table to add: spec.Table(i) for an i past the lake.
type put struct {
	tableWire
	body []byte
}

// inputs is everything a run sends, generated from (workload, seed) alone.
type inputs struct {
	w       workload
	spec    datagen.LakeSpec
	specArg string // the -spec value dustserve receives
	queries []query
	puts    []put
	sha256  string

	lakeTables map[string]*table.Table // memo for provenance checks
}

func wire(t *table.Table) tableWire {
	rows := make([][]string, t.NumRows())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return tableWire{Headers: t.Headers(), Rows: rows}
}

func makeInputs(w workload, cfg config, seed int64) (*inputs, error) {
	if cfg.tables > 0 {
		w.tables = cfg.tables
	}
	if cfg.perClass > 0 {
		w.perClass = cfg.perClass
	}
	specArg := fmt.Sprintf("tables=%d,rows=%d,%s,seed=%d", w.tables, w.rows, lakeKnobs, seed)
	spec, err := datagen.ParseLakeSpec(specArg)
	if err != nil {
		return nil, err
	}
	spec = spec.Normalized()
	in := &inputs{w: w, spec: spec, specArg: specArg, lakeTables: map[string]*table.Table{}}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", spec.String())
	// Candidates are the first perClass+spare queries of each width class,
	// kept in index order.
	var have [widthClasses]int
	for i, full := 0, 0; i < spec.Tables && full < widthClasses; i++ {
		q := query{index: i, tableWire: wire(spec.Query(i))}
		q.class = widthClass(len(q.Headers))
		if have[q.class] == w.perClass+cfg.spare {
			continue
		}
		if have[q.class]++; have[q.class] == w.perClass+cfg.spare {
			full++
		}
		q.body, err = json.Marshal(struct {
			Query tableWire `json:"query"`
			K     int       `json:"k"`
		}{q.tableWire, topK})
		if err != nil {
			return nil, err
		}
		h.Write(q.body)
		in.queries = append(in.queries, q)
	}
	if slices.Min(have[:]) < w.perClass {
		return nil, fmt.Errorf("%s: the lake has %v queries per width class, the pool needs %d of each", w.name, have, w.perClass)
	}
	// Fresh tables: other ones for each round's mutations, which is also
	// more than a round of the open loop adds.
	for i := 0; i < cfg.mutations*cfg.rounds; i++ {
		p := put{tableWire: wire(spec.Table(spec.Tables + i))}
		if p.body, err = json.Marshal(p.tableWire); err != nil {
			return nil, err
		}
		h.Write(p.body)
		in.puts = append(in.puts, p)
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// lakeTable returns the table a provenance entry names: a generated lake
// table (regenerated from its index, which its name carries) or one this
// run added, whose name is "bench<n>" for puts[n].
func (in *inputs) lakeTable(name string) *table.Table {
	if t, ok := in.lakeTables[name]; ok {
		return t
	}
	var t *table.Table
	switch {
	case strings.HasPrefix(name, "bench"):
		if i, err := strconv.Atoi(name[len("bench"):]); err == nil && i >= 0 {
			p := in.puts[i%len(in.puts)]
			t = table.New(name, p.Headers...)
			for _, r := range p.Rows {
				t.MustAppendRow(r...)
			}
		}
	case len(name) > 1:
		if i, err := strconv.Atoi(name[1:]); err == nil && i >= 0 && i < in.spec.Tables && in.spec.TableName(i) == name {
			t = in.spec.Table(i)
		}
	}
	in.lakeTables[name] = t
	return t
}

type opKind int

const (
	opSearch opKind = iota
	opPut
	opDelete
)

func (k opKind) String() string { return [...]string{"search", "put", "delete"}[k] }

// op is one planned request of the open loop.
type op struct {
	at    time.Duration // scheduled send time, from the round's start
	kind  opKind
	query int    // position in the pool (search)
	name  string // table name (put, delete)
	put   int    // index into inputs.puts (put)
}

// deleteAge is how long after a PUT's scheduled time a DELETE may name its
// table: the PUT has long been answered by then, so no DELETE races it.
const deleteAge = time.Second

// planOpenLoop draws one round of the mixed open loop: Poisson arrivals at
// rate per second for d, search/PUT/DELETE = 0.8/0.1/0.1. A DELETE names
// the oldest table this round added at least deleteAge earlier; with none
// pending it becomes a PUT. The plan is a function of the seed alone.
func planOpenLoop(rng *rand.Rand, rate float64, d time.Duration, pool, nPuts int) []op {
	var plan []op
	type added struct {
		at   time.Duration
		name string
	}
	var live []added
	var at time.Duration
	puts := 0
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at > d {
			return plan
		}
		switch w := rng.Float64(); {
		case w < 0.8:
			plan = append(plan, op{at: at, kind: opSearch, query: rng.Intn(pool)})
			continue
		case w >= 0.9 && len(live) > 0 && live[0].at+deleteAge <= at:
			plan = append(plan, op{at: at, kind: opDelete, name: live[0].name})
			live = live[1:]
			continue
		}
		name := "bench" + strconv.Itoa(puts)
		plan = append(plan, op{at: at, kind: opPut, name: name, put: puts % nPuts})
		live = append(live, added{at, name})
		puts++
	}
}
