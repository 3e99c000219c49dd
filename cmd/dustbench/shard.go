package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"dust/internal/datagen"
	"dust/internal/par"
	"dust/internal/search"
	"dust/internal/shard"
	"dust/internal/table"
)

// shardReport is the JSON record of one scatter-gather benchmark run; the
// repo's perf trajectory tracks it in BENCH_shard.json (schema documented
// in docs/BENCHMARKS.md).
type shardReport struct {
	Benchmark     string  `json:"benchmark"`
	Searcher      string  `json:"searcher"`
	Tables        int     `json:"tables"`
	Shards        int     `json:"shards"`
	Queries       int     `json:"queries"`
	K             int     `json:"k"`
	Oversample    float64 `json:"oversample"`
	IndexMS       float64 `json:"unsharded_index_ms"`
	ShardIndexMS  float64 `json:"sharded_index_ms"`
	UnshardedMS   float64 `json:"unsharded_ms_per_query"`
	ShardedMS     float64 `json:"sharded_ms_per_query"`
	ShardedANNMS  float64 `json:"sharded_ann_ms_per_query"`
	SingleGraphMS float64 `json:"single_graph_ann_ms_per_query"`
	ANNGraphRatio float64 `json:"sharded_ann_single_graph_ratio"`
	EncodeMS      float64 `json:"encode_ms_per_query"`
	ScatterMS     float64 `json:"scatter_ms_per_query"`
	GatherMS      float64 `json:"gather_ms_per_query"`
	BytesPerQuery float64 `json:"sharded_bytes_per_query"`
	ThroughputQPS float64 `json:"sharded_topk_qps"`
	ExactParity   bool    `json:"exact_parity"`
}

// runShardBench benchmarks the sharded scatter-gather index against the
// monolithic one: per-query exact TopK latency for both layouts over a
// generated lake, a bit-identity parity check (the equivalence the test
// suite gates), per-query latency in ANN mode for both the sharded layout
// (the candidate-only nomination plan) and the monolithic single-graph
// index (their ratio is the cost of partitioning the graph), per-stage
// encode/scatter/gather timings and allocated bytes per query for the
// sharded exact path, and concurrent scatter-gather TopK throughput. The
// full-scale lake holds 10k tables; -quick drops to 1k so the run finishes
// in seconds.
func runShardBench(shards int, quick bool, k int, out string) error {
	cfg := datagen.Config{
		Seed: 997, Domains: 10, TablesPerBase: 1000, QueriesPerBase: 1,
		BaseRows: 30, MinRows: 4, MaxRows: 8,
	}
	if quick {
		cfg.TablesPerBase = 100
	}
	bench := datagen.Generate("shard-bench", cfg)
	rep := shardReport{
		Benchmark:  "scatter-gather",
		Searcher:   "starmie",
		Tables:     bench.Lake.Len(),
		Shards:     shards,
		Queries:    len(bench.Queries),
		K:          k,
		Oversample: search.DefaultOversample,
	}
	fmt.Printf("scatter-gather benchmark: starmie over %d tables, %d shards, k=%d\n\n",
		rep.Tables, shards, k)

	// The two layouts do near-identical total work in exact mode, so the
	// measurement has to resolve a low-single-digit-percent difference.
	// Three rules make that resolvable on a shared machine. (1) Each layout
	// is measured *exclusively*: one index is built, measured, and released
	// before the rival is built, because two live indexes more than double
	// the hot working set and whichever is measured second eats the extra
	// cache misses. (2) Heap placement is luck: the index built into a
	// fragmented heap pays a small, run-dependent locality penalty. So each
	// layout is measured twice — once per build order — and every query
	// keeps the fastest repetition across both rounds, taking each layout
	// at its best footing. (3) The timed loops run with the collector off
	// (GC assist work is charged to whichever goroutine allocates during a
	// mark phase) and a forced collection between queries, outside the
	// timed windows, so no measurement absorbs GC work or an ever-growing
	// heap. Allocation cost still shows up on its own terms: bytes/query
	// and the throughput phase keep GC on.
	reps := 5
	if quick {
		// Quick-scale queries are ~5 ms, so scheduler preemption on a busy
		// machine is a larger fraction of each sample; more repetitions are
		// cheap and the minimum needs them to converge.
		reps = 11
	}
	timeOnce := func(s search.Searcher, q *table.Table) (time.Duration, []search.Scored) {
		t0 := time.Now()
		h := search.TopK(s, q, k)
		return time.Since(t0), h
	}
	timeTopK := func(s search.Searcher, q *table.Table) (time.Duration, []search.Scored) {
		best, hits := timeOnce(s, q)
		for r := 1; r < reps; r++ {
			if d, h := timeOnce(s, q); d < best {
				best, hits = d, h
			}
		}
		return best, hits
	}

	n := len(bench.Queries)
	monoDurs := make([]time.Duration, n)
	shardDurs := make([]time.Duration, n)
	monoANNDurs := make([]time.Duration, n)
	shardANNDurs := make([]time.Duration, n)
	monoNames := make([][]string, n)
	shardNames := make([][]string, n)
	minInto := func(durs []time.Duration, i int, d time.Duration) {
		if durs[i] == 0 || d < durs[i] {
			durs[i] = d
		}
	}
	measureExact := func(s search.Searcher, durs []time.Duration, names [][]string) {
		runtime.GC()
		gcOff := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gcOff)
		for i, q := range bench.Queries {
			d, hits := timeTopK(s, q)
			minInto(durs, i, d)
			names[i] = scoredKeys(hits)
			runtime.GC()
		}
	}
	measureANN := func(s search.Searcher, durs []time.Duration) {
		runtime.GC()
		gcOff := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gcOff)
		for i, q := range bench.Queries {
			d, _ := timeTopK(s, q)
			minInto(durs, i, d)
			runtime.GC()
		}
	}

	// Round 1, monolithic: exact and single-graph ANN, alone in the heap.
	start := time.Now()
	mono := search.NewStarmie(bench.Lake)
	rep.IndexMS = ms(time.Since(start))
	measureExact(mono, monoDurs, monoNames)
	if err := mono.SetMode(search.ANN); err != nil {
		return err
	}
	measureANN(mono, monoANNDurs)
	mono = nil
	runtime.GC()

	// Round 1, sharded: exact (with stage timings attached for this loop
	// only, so the reported means describe the exact scatter path rather
	// than a mix of modes), allocation footprint, the candidate-only ANN
	// plan, and concurrent throughput.
	start = time.Now()
	sharded := shard.NewStarmie(bench.Lake, shards, shard.Config{})
	rep.ShardIndexMS = ms(time.Since(start))
	var stages search.StageTimings
	sharded.Instrument(&stages)
	measureExact(sharded, shardDurs, shardNames)
	sharded.Instrument(nil)

	// Allocation footprint of the sharded exact path, measured in its own
	// pass: ReadMemStats stops the world, so interleaving it with the timed
	// loop above would perturb the latency numbers it sits next to.
	var memBefore, memAfter runtime.MemStats
	shardedBytes := uint64(0)
	for _, q := range bench.Queries {
		runtime.ReadMemStats(&memBefore)
		search.TopK(sharded, q, k)
		runtime.ReadMemStats(&memAfter)
		shardedBytes += memAfter.TotalAlloc - memBefore.TotalAlloc
	}

	// Sharded ANN against the single-graph latency recorded above (the
	// BENCH_ann.json configuration). The ratio says what graph partitioning
	// costs at query time.
	if err := sharded.SetMode(search.ANN); err != nil {
		sharded.Close()
		return err
	}
	measureANN(sharded, shardANNDurs)

	// Scatter-gather throughput: every query in flight concurrently over a
	// bounded pool, the shape a serving layer drives the index in.
	rounds := 20
	if quick {
		rounds = 50
	}
	t0 := time.Now()
	pool := par.NewPool(runtime.NumCPU())
	for r := 0; r < rounds; r++ {
		for _, q := range bench.Queries {
			q := q
			pool.Submit(func() { search.TopK(sharded, q, k) })
		}
	}
	pool.Close()
	elapsed := time.Since(t0)
	rep.ThroughputQPS = float64(rounds*len(bench.Queries)) / elapsed.Seconds()
	sharded.Close()
	sharded = nil
	runtime.GC()

	// Round 2: the same exact loops with the build order flipped, folded
	// into the per-query minima, so neither layout is stuck with whatever
	// heap placement this run happened to deal the second build.
	sharded2 := shard.NewStarmie(bench.Lake, shards, shard.Config{})
	measureExact(sharded2, shardDurs, shardNames)
	sharded2.Close()
	sharded2 = nil
	runtime.GC()
	mono2 := search.NewStarmie(bench.Lake)
	measureExact(mono2, monoDurs, monoNames)
	mono2 = nil
	runtime.GC()

	// Parity and the per-query table.
	rep.ExactParity = true
	var monoTotal, shardTotal, annTotal, monoANNTotal time.Duration
	fmt.Printf("%-14s %12s %12s %8s\n", "query", "mono ms", "sharded ms", "parity")
	for i, q := range bench.Queries {
		monoTotal += monoDurs[i]
		shardTotal += shardDurs[i]
		annTotal += shardANNDurs[i]
		monoANNTotal += monoANNDurs[i]
		got, want := shardNames[i], monoNames[i]
		parity := len(got) == len(want)
		for j := 0; parity && j < len(want); j++ {
			if got[j] != want[j] {
				parity = false
			}
		}
		if !parity {
			rep.ExactParity = false
		}
		fmt.Printf("%-14s %12.2f %12.2f %8v\n", q.Name, ms(monoDurs[i]), ms(shardDurs[i]), parity)
	}

	rep.UnshardedMS = ms(monoTotal) / float64(n)
	rep.ShardedMS = ms(shardTotal) / float64(n)
	rep.ShardedANNMS = ms(annTotal) / float64(n)
	rep.SingleGraphMS = ms(monoANNTotal) / float64(n)
	rep.ANNGraphRatio = safeRatio(annTotal, monoANNTotal)
	rep.BytesPerQuery = float64(shardedBytes) / float64(n)
	if qn := stages.Queries.Load(); qn > 0 {
		rep.EncodeMS = float64(stages.EncodeNS.Load()) / 1e6 / float64(qn)
		rep.ScatterMS = float64(stages.ScatterNS.Load()) / 1e6 / float64(qn)
		rep.GatherMS = float64(stages.GatherNS.Load()) / 1e6 / float64(qn)
	}
	fmt.Printf("%-14s %12.2f %12.2f %14.2f\n", "mean", rep.UnshardedMS, rep.ShardedMS, rep.ShardedANNMS)
	fmt.Printf("\nindex build: monolithic %.0f ms, sharded %.0f ms\n", rep.IndexMS, rep.ShardIndexMS)
	fmt.Printf("ann: sharded %.2f ms/query vs single-graph %.2f ms/query (ratio %.2fx)\n",
		rep.ShardedANNMS, rep.SingleGraphMS, rep.ANNGraphRatio)
	fmt.Printf("sharded stages (mean over %d instrumented queries): encode %.2f ms, scatter %.2f ms, gather %.2f ms\n",
		stages.Queries.Load(), rep.EncodeMS, rep.ScatterMS, rep.GatherMS)
	fmt.Printf("sharded exact allocations: %.0f bytes/query\n", rep.BytesPerQuery)
	fmt.Printf("scatter-gather TopK throughput (ann, %d in flight): %.1f queries/s\n",
		runtime.NumCPU(), rep.ThroughputQPS)
	if !rep.ExactParity {
		fmt.Println("WARNING: sharded exact results diverged from the monolithic index")
	}

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
