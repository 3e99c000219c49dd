// Sharded: partition a lake's index into shards and verify the sharded
// pipeline reproduces the monolithic one bit-for-bit. The example
// generates a benchmark lake, builds the pipeline twice — monolithic and
// WithShards(4) — compares end-to-end Search results and latency, saves
// the sharded index (one shard-NNN.dustidx per shard plus the manifest's
// shard map), and warm-starts it back, showing that the shard layout
// survives the round trip and the warm pipeline answers identically.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dust"
	"dust/internal/datagen"
	"dust/internal/lake"
)

const shards = 4

func main() {
	b := datagen.Generate("shard-example", datagen.Config{
		Seed: 2026, Domains: 6, TablesPerBase: 30, QueriesPerBase: 1,
		BaseRows: 60, MinRows: 10, MaxRows: 25,
	})
	query := b.Queries[0]

	dir, err := os.MkdirTemp("", "dust-sharded-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	lakeDir := filepath.Join(dir, "lake")
	idxDir := filepath.Join(dir, "index")
	if err := b.Lake.Save(lakeDir); err != nil {
		log.Fatal(err)
	}

	// Monolithic baseline.
	t0 := time.Now()
	mono := dust.New(b.Lake)
	monoBuild := time.Since(t0)
	t0 = time.Now()
	want, err := mono.Search(query, 8)
	if err != nil {
		log.Fatal(err)
	}
	monoQuery := time.Since(t0)
	fmt.Printf("monolithic: indexed %s in %v, query %v\n",
		b.Lake.Stats(), monoBuild.Round(time.Millisecond), monoQuery.Round(time.Millisecond))

	// Sharded: same lake, the index hash-partitioned into parts.
	t0 = time.Now()
	sharded := dust.New(b.Lake, dust.WithShards(shards))
	shardBuild := time.Since(t0)
	t0 = time.Now()
	got, err := sharded.Search(query, 8)
	if err != nil {
		log.Fatal(err)
	}
	shardQuery := time.Since(t0)
	fmt.Printf("sharded(%d): indexed in %v, query %v\n",
		sharded.Shards(), shardBuild.Round(time.Millisecond), shardQuery.Round(time.Millisecond))

	mustMatch(want, got, "sharded vs monolithic")
	fmt.Println("sharded pipeline reproduces the monolithic pipeline exactly")

	// Persist the shard layout and warm-start it back.
	if err := sharded.SaveIndex(idxDir); err != nil {
		log.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(idxDir, "shard-*.dustidx"))
	fmt.Printf("\nsaved sharded index: %d shard files + manifest in %s\n", len(files), idxDir)

	t0 = time.Now()
	l, err := lake.Load(lakeDir)
	if err != nil {
		log.Fatal(err)
	}
	warm, err := dust.LoadPipelineLake(l, idxDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm start: %d shard(s) restored in %v\n",
		warm.Shards(), time.Since(t0).Round(time.Millisecond))
	warmRes, err := warm.Search(query, 8)
	if err != nil {
		log.Fatal(err)
	}
	mustMatch(want, warmRes, "warm sharded vs monolithic")

	fmt.Println("\nwarm sharded pipeline answers identically; top diverse tuples:")
	fmt.Println("  " + strings.Join(warmRes.Tuples.Headers(), " | "))
	for i := 0; i < warmRes.Tuples.NumRows(); i++ {
		fmt.Printf("  %s   (from %s)\n",
			strings.Join(warmRes.Tuples.Row(i), " | "), warmRes.Provenance[i].Table)
	}
}

func mustMatch(want, got *dust.Result, label string) {
	if want.Tuples.NumRows() != got.Tuples.NumRows() {
		log.Fatalf("%s: %d rows vs %d", label, got.Tuples.NumRows(), want.Tuples.NumRows())
	}
	for i := 0; i < want.Tuples.NumRows(); i++ {
		if strings.Join(got.Tuples.Row(i), "|") != strings.Join(want.Tuples.Row(i), "|") {
			log.Fatalf("%s: row %d differs", label, i)
		}
	}
}
