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
	"flag"
	"fmt"
	"os"
	"strings"

	"dust"
	"dust/internal/lake"
	"dust/internal/table"
)

func main() {
	var (
		queryPath = flag.String("query", "", "query table CSV (required)")
		lakeDir   = flag.String("lake", "", "directory of lake CSVs (required)")
		k         = flag.Int("k", 20, "number of diverse tuples")
		topTables = flag.Int("tables", 10, "unionable tables to retrieve (at least 1)")
		modelPath = flag.String("model", "", "fine-tuned model from dusttrain (optional)")
		outPath   = flag.String("out", "", "write result CSV here instead of stdout")
		workers   = flag.Int("workers", 0, "parallelism of indexing/embedding/diversification (0 = all cores, 1 = sequential)")
		indexDir  = flag.String("index-dir", "", "saved-index directory: warm-start from it when present, create it otherwise")
		saveIndex = flag.Bool("save-index", false, "rebuild the index and save it to -index-dir even if one exists")
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
	if *topTables < 1 {
		fmt.Fprintln(os.Stderr, "dustsearch: -tables must be at least 1")
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
	p, err := dust.Boot(os.Stdout, l, *indexDir, *modelPath, *saveIndex,
		dust.WithTopTables(*topTables), dust.WithWorkers(*workers))
	if err != nil {
		fatal(err)
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
