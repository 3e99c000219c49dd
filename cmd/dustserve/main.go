// Command dustserve exposes a data lake as a long-running diverse-tuple
// search service: snapshot-swapped live indexes (PUT/DELETE /tables mutate
// the lake without blocking in-flight queries), an LRU result cache
// invalidated by epoch and bounded by entries and bytes, bounded request
// admission with optional degradation (-degrade-threshold: a server whose
// load factor reaches it answers from half the tables, or sheds with
// Retry-After: 1 when -tables is already 1), and per-request timeouts.
//
// Usage:
//
//	dustserve -lake ./santos/lake -addr :8080
//	dustserve -lake ./santos/lake -index-dir ./santos/index    # warm start
//	dustserve -spec 'tables=1000,rows=40,seed=7' -addr :8080   # synthetic lake
//
// With -index-dir the server warm-starts from a saved index when one
// exists and otherwise — or when the index is in another format version —
// builds the index cold and saves it for next boot.
//
// Try it:
//
//	curl localhost:8080/healthz
//	curl -H 'Content-Type: text/csv' --data-binary @query.csv \
//	     'localhost:8080/search?k=10'
//	curl -X PUT -H 'Content-Type: text/csv' --data-binary @new_table.csv \
//	     localhost:8080/tables/new_table
//	curl localhost:8080/metrics
//
// Observability: GET /metrics serves Prometheus text exposition,
// -log-requests writes one JSON line per request to stderr, and
// -pprof-addr serves net/http/pprof on a separate (typically
// loopback-only) listener. See docs/OPERATIONS.md for the full
// reference.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"dust"
	"dust/internal/codec"
	"dust/internal/datagen"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/serve"
	"dust/internal/vector"
)

func main() {
	var (
		lakeDir   = flag.String("lake", "", "directory of lake CSVs (required unless -spec)")
		specStr   = flag.String("spec", "", "serve a synthetic LakeSpec lake instead of -lake: comma-separated key=value knobs (see dustgen -spec)")
		indexDir  = flag.String("index-dir", "", "saved-index directory: warm-start from it when present, create it otherwise")
		addr      = flag.String("addr", ":8080", "listen address")
		topTables = flag.Int("tables", 10, "unionable tables retrieved per query (at least 1)")
		modelPath = flag.String("model", "", "fine-tuned model from dusttrain (optional)")
		workers   = flag.Int("workers", 0, "index-build parallelism (0 = all cores)")
		queryWk   = flag.Int("query-workers", 1, "data parallelism inside each request")
		inflight  = flag.Int("inflight", 0, "max concurrent searches (0 = all cores)")
		cacheCap  = flag.Int("cache", 1024, "query-result cache capacity (0 disables)")
		cacheBy   = flag.Int64("cache-bytes", 0, "query-result cache resident-byte cap (0 = entry bound only)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request budget (0 disables)")
		degrade   = flag.Float64("degrade-threshold", 0, "load factor ((executing + waiting searches) / -inflight) at which searches degrade to half the -tables (or shed with 503 + Retry-After: 1 when -tables is 1); 0 disables degraded admission; the benchmark's serve_mixed workload runs at 0.5")
		shards    = flag.Int("shards", 1, "partition the index into N shards, each with its own saved files (1 = monolithic); table mutations route to the owning shard and results are identical either way. Applies to cold builds only: a warm start keeps the layout saved in -index-dir")
		logReqs   = flag.Bool("log-requests", false, "log one JSON line per request to stderr (method, endpoint, status, duration, cache outcome, per-stage search timings)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling")
	)
	flag.Parse()
	if *lakeDir == "" && *specStr == "" {
		fmt.Fprintln(os.Stderr, "dustserve: -lake or -spec is required")
		os.Exit(2)
	}
	if *lakeDir != "" && *specStr != "" {
		fmt.Fprintln(os.Stderr, "dustserve: -lake and -spec are mutually exclusive")
		os.Exit(2)
	}
	if *topTables < 1 {
		fmt.Fprintln(os.Stderr, "dustserve: -tables must be at least 1")
		os.Exit(2)
	}

	var l *lake.Lake
	var err error
	if *specStr != "" {
		spec, perr := datagen.ParseLakeSpec(*specStr)
		if perr != nil {
			fatal(perr)
		}
		gen := time.Now()
		l = spec.Generate()
		fmt.Printf("generated %s (%s) in %v\n",
			spec.Normalized(), l.Stats(), time.Since(gen).Round(time.Millisecond))
	} else {
		l, err = lake.Load(*lakeDir)
		if err != nil {
			fatal(err)
		}
	}
	opts := []dust.Option{dust.WithTopTables(*topTables), dust.WithWorkers(*workers), dust.WithShards(*shards)}
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
	boot := time.Now()
	if *indexDir != "" && dust.HasIndex(*indexDir) {
		p, err = dust.LoadPipelineLake(l, *indexDir, opts...)
		switch {
		case errors.Is(err, codec.ErrVersion):
			fmt.Printf("rebuilding index in %s: %v\n", *indexDir, err)
		case err != nil:
			fatal(err)
		default:
			fmt.Printf("warm start: loaded index from %s in %v (epoch %d, %d shard(s))\n",
				*indexDir, time.Since(boot).Round(time.Millisecond), p.Epoch(), p.Shards())
		}
	}
	if p == nil {
		p = dust.New(l, opts...)
		fmt.Printf("cold start: indexed %s in %v (%d shard(s))\n",
			l.Stats(), time.Since(boot).Round(time.Millisecond), p.Shards())
		if *indexDir != "" {
			if err := p.SaveIndex(*indexDir); err != nil {
				fatal(err)
			}
			fmt.Printf("saved index to %s\n", *indexDir)
		}
	}

	sopts := []serve.Option{
		serve.WithCacheCapacity(*cacheCap),
		serve.WithCacheBytes(*cacheBy),
		serve.WithMaxInFlight(*inflight),
		serve.WithQueryWorkers(*queryWk),
		serve.WithTimeout(*timeout),
		serve.WithDegradeThreshold(*degrade),
	}
	if *logReqs {
		sopts = append(sopts, serve.WithRequestLog(os.Stderr))
	}
	srv := serve.New(p, sopts...)
	if *degrade > 0 {
		fmt.Printf("admission: degrade threshold %.2f\n", *degrade)
	}

	// Profiling stays off the serving listener: exposing pprof is opt-in
	// and on its own (typically loopback-only) address.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			ps := &http.Server{Addr: *pprofAddr, Handler: pm, ReadHeaderTimeout: 10 * time.Second}
			if err := ps.ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "dustserve: pprof:", err)
			}
		}()
		fmt.Printf("pprof: serving on %s\n", *pprofAddr)
	}

	fmt.Printf("cosine kernel: %s\n", vector.CosineKernel())
	fmt.Printf("dustserve: serving %s on %s\n", l.Name, *addr)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := hs.ListenAndServe(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dustserve:", err)
	os.Exit(1)
}
