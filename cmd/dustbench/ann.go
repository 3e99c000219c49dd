package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dust/internal/datagen"
	"dust/internal/search"
	"dust/internal/table"
)

// annReport is the JSON record of one staged-retrieval benchmark run; the
// repo's perf trajectory tracks it in BENCH_ann.json.
type annReport struct {
	Benchmark  string  `json:"benchmark"`
	Searcher   string  `json:"searcher"`
	Tables     int     `json:"tables"`
	Tuples     int     `json:"tuples,omitempty"`
	Queries    int     `json:"queries"`
	K          int     `json:"k"`
	Oversample float64 `json:"oversample"`
	EfSearch   int     `json:"ef_search"`
	Quantized  bool    `json:"quantized"`
	IndexMS    float64 `json:"index_ms"`
	GraphMS    float64 `json:"graph_build_ms"`
	ExactMS    float64 `json:"exact_ms_per_query"`
	ANNMS      float64 `json:"ann_ms_per_query"`
	Speedup    float64 `json:"speedup"`
	RecallAtK  float64 `json:"recall_at_k"`
}

// runANNBench benchmarks the staged retrieval engine: exact full-scan
// TopK against HNSW candidates + exact re-rank over a generated lake,
// with recall@k measured against the exact oracle, and writes the JSON
// report to out. The full-scale lake holds 10k tables; -quick drops to
// 1k so the run finishes in seconds. oversample/efSearch reshape the
// candidate stage (0 keeps the defaults); quantized builds the graph
// with SQ8 storage.
func runANNBench(searcher string, quick bool, k int, oversample float64, efSearch int, quantized bool, out string) error {
	cfg := datagen.Config{
		Seed: 997, Domains: 10, TablesPerBase: 1000, QueriesPerBase: 1,
		BaseRows: 30, MinRows: 4, MaxRows: 8,
	}
	if quick {
		cfg.TablesPerBase = 100
	}
	bench := datagen.Generate("ann-bench", cfg)
	rep := annReport{
		Benchmark:  "staged-retrieval",
		Searcher:   searcher,
		Tables:     bench.Lake.Len(),
		Queries:    len(bench.Queries),
		K:          k,
		Oversample: search.DefaultOversample,
		EfSearch:   search.DefaultEfSearch,
		Quantized:  quantized,
	}
	if oversample > 0 {
		rep.Oversample = oversample
	}
	if efSearch > 0 {
		rep.EfSearch = efSearch
	}

	// One searcher instance serves both passes: the exact pass runs in
	// the default mode, then SetMode(ANN) switches the same instance —
	// sharing every embedding — so GraphMS times only the graph build.
	// Results come back as comparable keys so recall@k is
	// searcher-agnostic.
	var run func(q *table.Table) []string
	var toANN func() error
	start := time.Now()
	switch searcher {
	case "starmie":
		s := search.NewStarmie(bench.Lake, search.WithQuantized(quantized))
		s.SetOversample(oversample)
		s.SetEfSearch(efSearch)
		run = func(q *table.Table) []string { return scoredKeys(search.TopK(s, q, k)) }
		toANN = func() error { return s.SetMode(search.ANN) }
	case "tuples":
		ts := search.NewTupleSearch(bench.Lake.Tables(), search.WithQuantized(quantized))
		ts.SetOversample(oversample)
		ts.SetEfSearch(efSearch)
		rep.Tuples = ts.Len()
		run = func(q *table.Table) []string { return tupleKeys(ts.TopK(q, k)) }
		toANN = func() error { return ts.SetMode(search.ANN) }
	default:
		return fmt.Errorf("dustbench: unknown -searcher %q (want starmie or tuples)", searcher)
	}
	rep.IndexMS = ms(time.Since(start))

	fmt.Printf("staged retrieval benchmark: %s over %d tables, k=%d, oversample=%g\n\n",
		searcher, rep.Tables, k, rep.Oversample)
	var exTotal, annTotal time.Duration
	exact := make([][]string, len(bench.Queries))
	exactDur := make([]time.Duration, len(bench.Queries))
	for i, q := range bench.Queries {
		exStart := time.Now()
		exact[i] = run(q)
		exactDur[i] = time.Since(exStart)
		exTotal += exactDur[i]
	}

	start = time.Now()
	if err := toANN(); err != nil {
		return err
	}
	rep.GraphMS = ms(time.Since(start))

	fmt.Printf("%-14s %12s %12s %9s %10s\n", "query", "exact ms", "ann ms", "speedup", "recall@k")
	var recallSum float64
	for i, q := range bench.Queries {
		annStart := time.Now()
		got := run(q)
		annDur := time.Since(annStart)
		annTotal += annDur

		in := make(map[string]bool, len(got))
		for _, n := range got {
			in[n] = true
		}
		hits := 0
		for _, n := range exact[i] {
			if in[n] {
				hits++
			}
		}
		recall := float64(hits) / float64(len(exact[i]))
		recallSum += recall
		fmt.Printf("%-14s %12.2f %12.2f %8.1fx %10.3f\n",
			q.Name, ms(exactDur[i]), ms(annDur), safeRatio(exactDur[i], annDur), recall)
	}
	n := len(bench.Queries)
	rep.ExactMS = ms(exTotal) / float64(n)
	rep.ANNMS = ms(annTotal) / float64(n)
	rep.Speedup = safeRatio(exTotal, annTotal)
	rep.RecallAtK = recallSum / float64(n)
	fmt.Printf("%-14s %12.2f %12.2f %8.1fx %10.3f\n",
		"mean", rep.ExactMS, rep.ANNMS, rep.Speedup, rep.RecallAtK)
	fmt.Printf("\nindex build %.0f ms, graph build %.0f ms\n", rep.IndexMS, rep.GraphMS)

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func scoredKeys(hits []search.Scored) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Table.Name
	}
	return out
}

func tupleKeys(hits []search.ScoredTuple) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = fmt.Sprintf("%s/%d", h.Table.Name, h.Row)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func safeRatio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
