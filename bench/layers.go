package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dust"
	"dust/internal/align"
	"dust/internal/diversify"
	"dust/internal/embed"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/vector"
)

// span is one timed call at a layer boundary. Spans of one request share
// its id; parent names the span that caused this one.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Request string `json:"request"`
	StartNS int64  `json:"start_ns"` // since the traced run began
	EndNS   int64  `json:"end_ns"`
	Bytes   uint64 `json:"alloc_bytes,omitempty"`
	Allocs  uint64 `json:"allocs,omitempty"`
	Status  int    `json:"status,omitempty"`
}

// tracer keeps the spans of a traced run in memory; write puts them on
// disk when the run ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

// call times fn as a span and records what it allocated. The benchmark
// process runs nothing else meanwhile, so the runtime's allocation totals
// before and after are the call's own.
func (t *tracer) call(name, parent, request string, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	runtime.ReadMemStats(&m1)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Request: request,
		StartNS: int64(start), EndNS: int64(end),
		Bytes: m1.TotalAlloc - m0.TotalAlloc, Allocs: m1.Mallocs - m0.Mallocs})
}

// addRound records the client's view of one round's requests as
// serve.request spans.
func (t *tracer) addRound(r int, samples []sample) {
	if t == nil {
		return
	}
	for i, s := range samples {
		start := s.start.Sub(t.t0)
		t.spans = append(t.spans, span{Name: "serve.request", Parent: s.kind.String(),
			Request: fmt.Sprintf("r%d-%d", r, i), StartNS: int64(start), EndNS: int64(start + s.lat),
			Status: s.status})
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the lengths in ms of the spans called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// perOp returns the mean bytes and allocations of the spans called name.
func (t *tracer) perOp(name string) (bytes, allocs float64) {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			bytes += float64(s.Bytes)
			allocs += float64(s.Allocs)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return bytes / float64(n), allocs / float64(n)
}

// queryWorkers is the -query-workers the benchmark's servers run with; the
// traced run bounds its in-process pipeline the same way.
const queryWorkers = 1

// bounded returns s scoring with queryWorkers workers.
func bounded(s search.Searcher) search.Searcher {
	return s.(search.QueryBounded).QueryWorkers(queryWorkers)
}

// traceLayers is the in-process half of the traced run: over the lake the
// servers were given it times, from outside, the real search and then
// Algorithm 1's calls one by one, each fed what the previous one returned,
// followed by the layers a request reaches only in some configurations
// (ANN view, sharded layout, saved index). It checks the served answers of
// every pool query against the in-process ones on the way.
func traceLayers(tr *tracer, in *inputs, pool []int, t *traffic, rounds []round, outDir string) (map[string]metric, error) {
	ctx := context.Background()
	lk := in.spec.Generate()
	m := map[string]metric{}

	buildStart := time.Now()
	st := search.NewStarmie(lk)
	m["search.index_build_s"] = metric{time.Since(buildStart).Seconds(), "s"}
	full := dust.New(lk, dust.WithSearcher(st))
	p := full.QueryBound(queryWorkers)
	stq := bounded(st)
	// dust.New's defaults, which the replay below must call with.
	colEnc := embed.ColumnLevel{Model: embed.NewRoBERTa()}
	tupEnc := embed.NewRoBERTa(embed.WithAnisotropy(0.05))
	dst := diversify.NewDUST()
	exactServer := !in.w.open // serve_mixed mutates its lake and may answer from the ANN view

	var results []*dust.Result
	var columns, poolRows, minDiv []float64
	exactTop := make([][]string, len(pool))
	units := probe(30) // calibration, see calib.go: between the queries of every loop below
	for pos, qi := range pool {
		q := in.queries[qi].table()
		id := fmt.Sprintf("q%d", qi)
		units = append(units, probe(10)...)

		var res *dust.Result
		var err error
		tr.call("dust.search", "", id, func() { res, err = p.SearchContext(ctx, q, topK) })
		if err != nil {
			return nil, fmt.Errorf("query %d: served 200, in-process: %v", qi, err)
		}
		results = append(results, res)
		if exactServer {
			if err := sameResult(t.settled[pos], res); err != nil {
				return nil, fmt.Errorf("query %d: %v", qi, err)
			}
		}

		tr.call("search.encode_query", "dust.replay", id, func() { st.EncodeQuery(q) })
		var hits []search.Scored
		tr.call("search.topk", "dust.replay", id, func() { hits, err = search.TopKCtx(ctx, stq, q, 10) })
		if err != nil {
			return nil, err
		}
		tables := make([]*table.Table, len(hits))
		for i, h := range hits {
			tables[i] = h.Table
			exactTop[pos] = append(exactTop[pos], h.Table.Name)
		}
		var cols []align.Column
		tr.call("align.embed_columns", "dust.replay", id, func() { cols = align.EmbedColumns(q, tables, colEnc) })
		columns = append(columns, float64(len(cols)))
		var headers []string
		var mappings []table.Mapping
		tr.call("align.holistic", "dust.replay", id, func() {
			headers, mappings, err = align.HolisticWorkers(cols, queryWorkers).Mappings(q, tables)
		})
		if err != nil {
			return nil, err
		}
		tr.call("table.outer_union", "dust.replay", id, func() {
			_, _, err = table.OuterUnion(q.Name+"_unionable", headers, mappings)
		})
		if err != nil {
			return nil, err
		}
		// The real search drops low-coverage rows before embedding; its
		// Unioned is what the embed and diversify stages saw.
		unioned := res.Unioned.Rows()
		rows := make([][]string, len(unioned))
		for i, r := range unioned {
			rows[i] = r
		}
		poolRows = append(poolRows, float64(len(rows)))
		var eq, et []vector.Vec
		tr.call("model.encode_tuples", "dust.replay", id, func() {
			eq, _ = model.EncodeBatchContext(ctx, tupEnc, headers, in.queries[qi].Rows, queryWorkers)
			et, _ = model.EncodeBatchContext(ctx, tupEnc, headers, rows, queryWorkers)
		})
		groups := make([]int, len(rows))
		ids := map[string]int{}
		for i, pv := range res.UnionedProvenance {
			if _, ok := ids[pv.Table]; !ok {
				ids[pv.Table] = len(ids)
			}
			groups[i] = ids[pv.Table]
		}
		prob := diversify.Problem{Query: eq, Tuples: et, Groups: groups, K: topK,
			Dist: vector.CosineDistance, Workers: queryWorkers}
		var idx []int
		tr.call("diversify.select", "dust.replay", id, func() { idx = dst.Select(prob) })
		tr.call("diversify.prune", "diversify.select", id, func() { diversify.Prune(prob, dst.S) })
		minDiv = append(minDiv, diversify.MinDiversity(eq, diversify.Gather(et, idx), vector.CosineDistance))
		// The replay must arrive where the real search did.
		for i, x := range idx {
			if !slices.Equal([]string(res.Unioned.Row(x)), []string(res.Tuples.Row(i))) {
				return nil, fmt.Errorf("query %d: replayed layers select another tuple %d than the search", qi, i)
			}
		}
	}

	p50 := func(name string) float64 { return quantile(tr.durations(name), 0.5) }
	searchP50 := p50("dust.search")
	m["dust.search_p50_ms"] = metric{searchP50, "ms"}
	b, a := tr.perOp("dust.search")
	m["dust.alloc_bytes_per_search"] = metric{b, "B"}
	m["dust.allocs_per_search"] = metric{a, "count"}
	attributed := 0.0
	for _, l := range []struct{ span, metric string }{
		{"search.topk", "search.topk_p50_ms"},
		{"align.embed_columns", "align.embed_columns_p50_ms"},
		{"align.holistic", "align.holistic_p50_ms"},
		{"table.outer_union", "table.outer_union_p50_ms"},
		{"model.encode_tuples", "model.encode_tuples_p50_ms"},
		{"diversify.select", "diversify.select_p50_ms"},
	} {
		v := p50(l.span)
		m[l.metric] = metric{v, "ms"}
		attributed += v
	}
	m["dust.unattributed_share"] = metric{1 - attributed/searchP50, "share"}
	m["search.encode_query_p50_ms"] = metric{p50("search.encode_query"), "ms"}
	m["diversify.prune_p50_ms"] = metric{p50("diversify.prune"), "ms"}
	b, _ = tr.perOp("search.topk")
	m["search.topk_alloc_bytes_per_op"] = metric{b, "B"}
	b1, _ := tr.perOp("align.embed_columns")
	b2, _ := tr.perOp("align.holistic")
	m["align.alloc_bytes_per_op"] = metric{b1 + b2, "B"}
	b, _ = tr.perOp("model.encode_tuples")
	m["model.alloc_bytes_per_op"] = metric{b, "B"}
	b, _ = tr.perOp("diversify.select")
	m["diversify.alloc_bytes_per_op"] = metric{b, "B"}
	m["align.columns_per_query"] = metric{quantile(columns, 0.5), "count"}
	m["table.pool_rows_p50"] = metric{quantile(poolRows, 0.5), "count"}
	m["diversify.min_diversity"] = metric{quantile(minDiv, 0.5), "score"}
	var encMS, encRows float64
	for i, d := range tr.durations("model.encode_tuples") {
		encMS += d
		encRows += poolRows[i] + float64(len(in.queries[pool[i]].Rows))
	}
	m["model.tuples_per_s"] = metric{encRows / (encMS / 1000), "1/s"}

	// Save and load before the ANN graph exists, so the files are the
	// searcher index alone.
	dir := filepath.Join(outDir, "index-"+in.w.name)
	defer os.RemoveAll(dir)
	saveStart := time.Now()
	if err := full.SaveIndex(dir); err != nil {
		return nil, err
	}
	m["persist.save_s"] = metric{time.Since(saveStart).Seconds(), "s"}
	var disk int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		disk += fi.Size()
		return err
	})
	if err != nil {
		return nil, err
	}
	m["persist.index_disk_mb"] = metric{float64(disk) / (1 << 20), "MB"}
	loadStart := time.Now()
	loaded, err := dust.LoadPipelineLake(lk, dir)
	if err != nil {
		return nil, err
	}
	m["persist.load_s"] = metric{time.Since(loadStart).Seconds(), "s"}
	reloaded, err := loaded.Search(in.queries[pool[0]].table(), topK)
	if err != nil {
		return nil, fmt.Errorf("after save and load: %v", err)
	}
	if err := sameTuples(reloaded, results[0]); err != nil {
		return nil, fmt.Errorf("query %d after save and load: %v", pool[0], err)
	}

	// The view a degraded request is answered from.
	annStart := time.Now()
	if !full.PrepareANN() {
		return nil, fmt.Errorf("no ANN view after PrepareANN")
	}
	m["ann.build_s"] = metric{time.Since(annStart).Seconds(), "s"}
	m["search.index_bytes"] = metric{float64(full.IndexBytes().Bytes), "B"}
	annView, ok := st.ModeView(search.ANN)
	if !ok {
		return nil, fmt.Errorf("no ANN view of the searcher")
	}
	annView = bounded(annView)
	found, wanted := 0, 0
	for pos, qi := range pool {
		units = append(units, probe(10)...)
		var hits []search.Scored
		var err error
		tr.call("ann.topk", "", fmt.Sprintf("q%d", qi), func() {
			hits, err = search.TopKCtx(ctx, annView, in.queries[qi].table(), 10)
		})
		if err != nil {
			return nil, err
		}
		wanted += len(exactTop[pos])
		for _, h := range hits {
			if slices.Contains(exactTop[pos], h.Table.Name) {
				found++
			}
		}
	}
	m["ann.topk_p50_ms"] = metric{p50("ann.topk"), "ms"}
	m["ann.recall_at_10"] = metric{share(found, wanted), "share"}

	// The sharded layout must answer exactly like the monolithic one. A side
	// layer: a fifth of the pool is enough.
	sharded := dust.New(lk, dust.WithShards(4))
	defer sharded.Close()
	sp := sharded.QueryBound(queryWorkers)
	for pos, qi := range pool[:max(1, len(pool)/5)] {
		units = append(units, probe(10)...)
		var res *dust.Result
		var err error
		tr.call("shard.search", "", fmt.Sprintf("q%d", qi), func() {
			res, err = sp.SearchContext(ctx, in.queries[qi].table(), topK)
		})
		if err != nil {
			return nil, err
		}
		if err := sameTuples(res, results[pos]); err != nil {
			return nil, fmt.Errorf("query %d: 4 shards: %v", qi, err)
		}
	}
	m["shard.search_p50_ms"] = metric{p50("shard.search"), "ms"}

	// Everything above was timed in this one phase; report it at the host's
	// quiet speed.
	slow := slowdown(units, min(t.quiet, slices.Min(units)))
	fmt.Printf("%s: host slowdown over the in-process layers %.3f\n", in.w.name, slow)
	for name, v := range m {
		switch v.Unit {
		case "ms", "s":
			m[name] = metric{v.Value / slow, v.Unit}
		case "1/s":
			m[name] = metric{v.Value * slow, v.Unit}
		}
	}
	m["serve.overhead_p50_ms"] = metric{serveOverhead(t, rounds, tr.durations("dust.search"), slow), "ms"}
	return m, nil
}

// serveOverhead is the median, over the pool, of a query's first-pass HTTP
// latency less its in-process search time, both at quiet speed. That pass is
// uncached, unloaded and exact on every workload, like the in-process
// searches; taking the difference query by query cancels what the queries
// cost and leaves the server's share.
func serveOverhead(t *traffic, rounds []round, inProcess []float64, inProcessSlowdown float64) float64 {
	var overhead []float64
	for _, s := range rounds[0].samples {
		if s.phase == phaseSettle {
			overhead = append(overhead, ms(s.lat)/t.settleSlowdown-inProcess[s.query]/inProcessSlowdown)
		}
	}
	return quantile(overhead, 0.5)
}

func sameTuples(got, want *dust.Result) error {
	if !slices.Equal(got.Provenance, want.Provenance) ||
		!slices.EqualFunc(got.Tuples.Rows(), want.Tuples.Rows(), func(a, b table.Tuple) bool { return slices.Equal(a, b) }) {
		return fmt.Errorf("tuples %v from %v, want %v from %v",
			got.Tuples.Rows(), got.Provenance, want.Tuples.Rows(), want.Provenance)
	}
	return nil
}

// serveLayer is the serving layer's share of the traced run: what the
// window's requests, the client's books and the server's counters say, the
// times at quiet speed.
func serveLayer(t *traffic, rounds []round) map[string]metric {
	var hits, degraded, shed uint64
	for _, rd := range rounds {
		hits += rd.after.Cache.Hits - rd.before.Cache.Hits
		degraded += rd.after.Degraded - rd.before.Degraded
		shed += rd.after.Shed - rd.before.Shed
	}
	p := func(lat []float64, q float64) metric {
		if len(lat) == 0 { // a closed loop has no cache hit to time, a short open loop no DELETE
			return metric{0, "ms"}
		}
		return metric{quantile(lat, q) / t.slowdown, "ms"}
	}
	return map[string]metric{
		"serve.request_p50_ms":     p(t.searchLat, 0.5),
		"serve.search_p90_ms":      p(t.searchLat, 0.9),
		"serve.search_p99_ms":      p(t.searchLat, 0.99),
		"serve.cache_hit_p50_ms":   p(t.hitLat, 0.5),
		"serve.put_p50_ms":         p(t.putLat, 0.5),
		"serve.delete_p50_ms":      p(t.deleteLat, 0.5),
		"loadgen.lag_p99_ms":       p(t.lag, 0.99),
		"serve.response_bytes_p50": {quantile(t.respBytes, 0.5), "B"},
		"serve.failed_share":       {share(t.failed, t.attempted), "share"},
		"serve.cache_hit_share":    {share(int(hits), t.searches), "share"},
		"serve.degraded_share":     {share(int(degraded), t.searches), "share"},
		"serve.shed_share":         {share(int(shed), t.searches), "share"},
		"serve.epochs":             {float64(t.epochs), "count"},
		"host.slowdown":            {t.slowdown, "ratio"},
	}
}
