package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dust/internal/datagen"
	"dust/internal/search"
)

// scaleStorage is one storage mode's half of the scale report: graph
// build time, resident footprint, and query behaviour of the ANN stage.
type scaleStorage struct {
	GraphMS float64 `json:"graph_build_ms"`
	// IndexBytes is the graph's full resident estimate (vectors + links);
	// VectorBytes isolates the stored-vector payload, the part SQ8
	// compresses (links are storage-independent).
	IndexBytes    int64   `json:"index_bytes"`
	VectorBytes   int64   `json:"vector_bytes"`
	BytesPerTable float64 `json:"bytes_per_table"`
	ANNMS         float64 `json:"ann_ms_per_query"`
	RecallAtK     float64 `json:"recall_at_k"`
}

// scaleReport is the JSON record of one -scale run (BENCH_scale.json):
// the same lake and query set measured under float and SQ8-quantized
// graph storage, against the exact full-scan oracle.
type scaleReport struct {
	Benchmark  string       `json:"benchmark"`
	Tables     int          `json:"tables"`
	Columns    int          `json:"columns"`
	Queries    int          `json:"queries"`
	K          int          `json:"k"`
	Workers    int          `json:"workers"`
	Oversample float64      `json:"oversample"`
	EfSearch   int          `json:"ef_search"`
	IndexMS    float64      `json:"index_ms"`
	ExactMS    float64      `json:"exact_ms_per_query"`
	Float      scaleStorage `json:"float"`
	Quantized  scaleStorage `json:"quantized"`
	// VectorBytesRatio is quantized vector bytes over float vector bytes —
	// the memory headline (~0.28 at dim 128: d+16 vs 4d bytes per vector).
	VectorBytesRatio float64 `json:"vector_bytes_ratio"`
}

// runScaleBench measures the ANN index at lake scale: a generated lake of
// about `tables` tables is indexed once, then the same HNSW graph is
// built twice — float storage and SQ8-quantized — with resident bytes,
// batch-parallel build time, per-query ANN latency, and recall@k against
// the exact oracle recorded for each, and the report written to out.
// The headline run uses 100k tables; CI smokes it at 2k.
func runScaleBench(tables, workers, k int, oversample float64, efSearch int, out string) error {
	const domains = 10
	perBase := tables / domains
	if perBase < 1 {
		perBase = 1
	}
	cfg := datagen.Config{
		Seed: 1009, Domains: domains, TablesPerBase: perBase, QueriesPerBase: 1,
		BaseRows: 30, MinRows: 4, MaxRows: 8,
	}
	start := time.Now()
	bench := datagen.Generate("scale-bench", cfg)
	fmt.Printf("scale benchmark: generated %d tables in %v\n",
		bench.Lake.Len(), time.Since(start).Round(time.Millisecond))

	rep := scaleReport{
		Benchmark:  "scale",
		Tables:     bench.Lake.Len(),
		Columns:    bench.Lake.Stats().Columns,
		Queries:    len(bench.Queries),
		K:          k,
		Workers:    workers,
		Oversample: oversample,
		EfSearch:   efSearch,
	}

	start = time.Now()
	s := search.NewStarmie(bench.Lake, search.WithWorkers(workers))
	s.SetOversample(oversample)
	s.SetEfSearch(efSearch)
	rep.IndexMS = ms(time.Since(start))
	fmt.Printf("indexed %d tables (%d columns) in %.0f ms\n", rep.Tables, rep.Columns, rep.IndexMS)

	// Exact oracle first, while the searcher is still in exact mode.
	exact := make([][]string, len(bench.Queries))
	var exTotal time.Duration
	for i, q := range bench.Queries {
		t0 := time.Now()
		exact[i] = scoredKeys(search.TopK(s, q, k))
		exTotal += time.Since(t0)
	}
	rep.ExactMS = ms(exTotal) / float64(len(bench.Queries))
	fmt.Printf("exact oracle: %.2f ms/query\n\n", rep.ExactMS)

	measure := func(label string, build func() error) (scaleStorage, error) {
		var st scaleStorage
		t0 := time.Now()
		if err := build(); err != nil {
			return st, err
		}
		st.GraphMS = ms(time.Since(t0))
		g := s.Graph()
		st.IndexBytes = g.Bytes()
		st.VectorBytes = g.VectorBytes()
		st.BytesPerTable = float64(st.VectorBytes) / float64(rep.Tables)
		var annTotal time.Duration
		var recallSum float64
		for i, q := range bench.Queries {
			t1 := time.Now()
			got := scoredKeys(search.TopK(s, q, k))
			annTotal += time.Since(t1)
			recallSum += recallOf(exact[i], got)
		}
		st.ANNMS = ms(annTotal) / float64(len(bench.Queries))
		st.RecallAtK = recallSum / float64(len(bench.Queries))
		fmt.Printf("%-10s build %8.0f ms  vectors %12d B (%.1f B/table)  query %8.2f ms  recall@%d %.3f\n",
			label, st.GraphMS, st.VectorBytes, st.BytesPerTable, st.ANNMS, k, st.RecallAtK)
		return st, nil
	}

	var err error
	if rep.Float, err = measure("float", func() error { return s.SetMode(search.ANN) }); err != nil {
		return err
	}
	if rep.Quantized, err = measure("quantized", func() error { s.SetQuantized(true); return nil }); err != nil {
		return err
	}
	if rep.Float.VectorBytes > 0 {
		rep.VectorBytesRatio = float64(rep.Quantized.VectorBytes) / float64(rep.Float.VectorBytes)
	}
	fmt.Printf("\nquantized/float vector bytes: %.3fx\n", rep.VectorBytesRatio)

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

// recallOf is the fraction of the oracle's keys the candidate run found.
func recallOf(oracle, got []string) float64 {
	if len(oracle) == 0 {
		return 1
	}
	in := make(map[string]bool, len(got))
	for _, n := range got {
		in[n] = true
	}
	hits := 0
	for _, n := range oracle {
		if in[n] {
			hits++
		}
	}
	return float64(hits) / float64(len(oracle))
}
