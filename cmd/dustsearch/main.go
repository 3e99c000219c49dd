// Command dustsearch runs the end-to-end DUST pipeline: given a query CSV
// and a directory of lake CSVs, it prints (or writes) the k most diverse
// unionable tuples.
//
// Usage:
//
//	dustsearch -query q.csv -lake ./lake -k 20
//	dustsearch -query q.csv -lake ./lake -k 50 -model dust.model -out diverse.csv
//
// With -index-dir the search index persists across runs: the first run
// builds and saves it, later runs warm-start from disk instead of
// re-indexing the lake. -save-index forces a rebuild of a stale index, and
// an index in another format version is rebuilt the same way.
//
//	dustsearch -query q.csv -lake ./lake -index-dir ./lake.idx
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"dust"
	"dust/internal/codec"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/table"
)

func main() {
	var (
		queryPath  = flag.String("query", "", "query table CSV (required)")
		lakeDir    = flag.String("lake", "", "directory of lake CSVs (required)")
		k          = flag.Int("k", 20, "number of diverse tuples")
		topTables  = flag.Int("tables", 10, "unionable tables to retrieve")
		modelPath  = flag.String("model", "", "fine-tuned model from dusttrain (optional)")
		outPath    = flag.String("out", "", "write result CSV here instead of stdout")
		workers    = flag.Int("workers", 0, "parallelism of indexing/embedding/diversification (0 = all cores, 1 = sequential)")
		indexDir   = flag.String("index-dir", "", "saved-index directory: warm-start from it when present, create it otherwise")
		saveIndex  = flag.Bool("save-index", false, "rebuild the index and save it to -index-dir even if one exists")
		ann        = flag.Bool("ann", false, "approximate candidate retrieval (HNSW) with exact re-ranking; trades a little recall for lake-size-independent latency. -ann=false forces exact retrieval even for an index saved in ANN mode; omit the flag to follow the saved index")
		shards     = flag.Int("shards", 1, "partition the index into N shards, each with its own HNSW graph and saved files (1 = monolithic); exact-mode results are identical either way. Applies to cold builds only: a warm start keeps the layout saved in -index-dir")
		oversample = flag.Float64("oversample", 0, "ANN candidate oversampling factor: retrieve about N*k candidates before exact re-ranking (0 = default)")
		efSearch   = flag.Int("ef-search", 0, "HNSW traversal beam width of the ANN candidate stage (0 = default)")
	)
	flag.Parse()
	if *queryPath == "" || *lakeDir == "" {
		fmt.Fprintln(os.Stderr, "dustsearch: -query and -lake are required")
		os.Exit(2)
	}
	if *saveIndex && *indexDir == "" {
		fmt.Fprintln(os.Stderr, "dustsearch: -save-index requires -index-dir")
		os.Exit(2)
	}

	query, err := table.LoadCSV(*queryPath)
	if err != nil {
		fatal(err)
	}
	l, err := lake.Load(*lakeDir)
	if err != nil {
		fatal(err)
	}
	opts := []dust.Option{
		dust.WithTopTables(*topTables), dust.WithWorkers(*workers), dust.WithShards(*shards),
		dust.WithOversample(*oversample), dust.WithEfSearch(*efSearch),
	}
	// Tri-state retrieval: an explicit -ann / -ann=false overrides the
	// mode recorded in a warm-started index; omitting the flag follows it.
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "ann" {
			return
		}
		mode := search.Exact
		if *ann {
			mode = search.ANN
		}
		opts = append(opts, dust.WithRetriever(mode))
	})
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			fatal(err)
		}
		m, err := model.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		opts = append(opts, dust.WithTupleEncoder(m))
	}

	var p *dust.Pipeline
	if *indexDir != "" && !*saveIndex && dust.HasIndex(*indexDir) {
		p, err = dust.LoadPipelineLake(l, *indexDir, opts...)
		switch {
		case errors.Is(err, codec.ErrVersion):
			fmt.Printf("rebuilding index in %s: %v\n", *indexDir, err)
		case err != nil:
			fatal(err)
		default:
			fmt.Printf("warm start: loaded index from %s (%d shard(s))\n", *indexDir, p.Shards())
		}
	}
	if p == nil {
		p = dust.New(l, opts...)
		if *indexDir != "" {
			if err := p.SaveIndex(*indexDir); err != nil {
				fatal(err)
			}
			fmt.Printf("saved index to %s\n", *indexDir)
		}
	}

	res, err := p.Search(query, *k)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("retrieved %d unionable tables: %s\n",
		len(res.UnionableTables), strings.Join(res.UnionableTables, ", "))
	fmt.Printf("unionable tuple pool: %d; returning %d diverse tuples\n\n",
		res.Unioned.NumRows(), res.Tuples.NumRows())

	if *outPath != "" {
		if err := res.Tuples.SaveCSV(*outPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
		return
	}
	fmt.Println(strings.Join(res.Tuples.Headers(), " | "))
	for i := 0; i < res.Tuples.NumRows(); i++ {
		fmt.Printf("%s   (from %s)\n",
			strings.Join(res.Tuples.Row(i), " | "), res.Provenance[i].Table)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dustsearch:", err)
	os.Exit(1)
}
