package dust_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (each regenerates the corresponding experiment at reduced
// scale; run `go run ./cmd/dustbench` for the full-scale reports), plus
// micro-benchmarks of the hot substrates (tuple embedding, clustering, the
// diversification algorithms).

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"dust"
	"dust/internal/datagen"
	"dust/internal/diversify"
	"dust/internal/embed"
	"dust/internal/experiments"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/search"
	"dust/internal/table"
	"dust/internal/vector"
)

var quickCfg = experiments.Config{Quick: true}

// --- one benchmark per paper artifact ---

func BenchmarkFig2PCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2(quickCfg)
	}
}

func BenchmarkFig5BenchmarkStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(quickCfg)
	}
}

func BenchmarkTable1ColumnAlignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(quickCfg)
	}
}

func BenchmarkFig6TupleAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(quickCfg)
	}
}

func BenchmarkTable2Diversification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(quickCfg)
	}
}

func BenchmarkFig7RuntimeSweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(quickCfg)
	}
}

func BenchmarkTable3EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(quickCfg)
	}
}

func BenchmarkFig8CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(quickCfg)
	}
}

func BenchmarkFig10ShuffleRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(quickCfg)
	}
}

func BenchmarkFig11ImpactOfP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(quickCfg)
	}
}

func BenchmarkPruneAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PruneAblation(quickCfg)
	}
}

// --- end-to-end pipeline ---

func BenchmarkPipelineSearch(b *testing.B) {
	bench := datagen.Generate("bench-pipeline", datagen.Config{
		Seed: 991, Domains: 4, TablesPerBase: 5, BaseRows: 60, MinRows: 15, MaxRows: 30,
	})
	p := dust.New(bench.Lake)
	q := bench.Queries[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolSearch runs the benchmark's closed-loop pool in process:
// for each workload's lake at seed 7 (bench/workload.go's shapes and
// knobs), the first 16 queries of each width class that the pipeline
// answers, cycled, at k = 10. Beside the heap bytes and objects per search
// it reports gc-share, the collector's share of the busy CPU over the timed
// loop (runtime/metrics: /cpu/classes/gc/total over total less idle), which
// is what garbage costs a search. Run it at -benchtime 320x: four passes
// over the pool.
func BenchmarkPoolSearch(b *testing.B) {
	for _, w := range []struct{ name, spec string }{
		{"balanced", "tables=500,rows=40"},
		{"tall", "tables=300,rows=120"},
		{"wide", "tables=8000,rows=12"},
	} {
		spec, err := datagen.ParseLakeSpec(w.spec + ",zipf=1.5,parents=11,fk=0.3,null=0.01,seed=7")
		if err != nil {
			b.Fatal(err)
		}
		p := dust.New(spec.Generate())
		var pool []*table.Table
		var have [5]int
		for i := 0; i < spec.Tables && len(pool) < 80; i++ {
			q := spec.Query(i)
			class := min(max(q.NumCols(), 3), 7) - 3
			if have[class] == 16 {
				continue
			}
			if _, err := p.Search(q, 10); err == nil { // the benchmark skips a 422
				have[class]++
				pool = append(pool, q)
			}
		}
		b.Run(w.name, func(b *testing.B) {
			samples := []metrics.Sample{
				{Name: "/cpu/classes/gc/total:cpu-seconds"},
				{Name: "/cpu/classes/total:cpu-seconds"},
				{Name: "/cpu/classes/idle:cpu-seconds"},
			}
			read := func() (gc, busy float64) {
				metrics.Read(samples)
				return samples[0].Value.Float64(), samples[1].Value.Float64() - samples[2].Value.Float64()
			}
			b.ReportAllocs()
			runtime.GC()
			b.ResetTimer()
			gc0, busy0 := read()
			for i := 0; i < b.N; i++ {
				if _, err := p.Search(pool[i%len(pool)], 10); err != nil {
					b.Fatal(err)
				}
			}
			// The runtime brings its CPU accounting up to date at each
			// collection; a loop too short to see one reports no share.
			if gc1, busy1 := read(); busy1 > busy0 {
				b.ReportMetric((gc1-gc0)/(busy1-busy0), "gc-share")
			}
		})
	}
}

// BenchmarkColdVsWarmStart quantifies index persistence on the Fig. 5
// mythology lake: "cold" loads the lake CSVs and builds the Starmie index
// from scratch; "warm" loads the same CSVs plus the index saved by
// SaveIndex. The acceptance bar for the persistence subsystem is warm >= 5x
// faster than cold.
func BenchmarkColdVsWarmStart(b *testing.B) {
	bench := datagen.Generate("myth-bench", datagen.Config{
		Seed: 2026, TablesPerBase: 20, BaseRows: 160, MinRows: 30, MaxRows: 80,
	})
	l := lake.New("mythology")
	for _, t := range bench.Lake.Tables() {
		if strings.HasPrefix(t.Name, "mythology_") {
			l.MustAdd(t)
		}
	}
	dir := b.TempDir()
	lakeDir := filepath.Join(dir, "lake")
	idxDir := filepath.Join(dir, "index")
	if err := l.Save(lakeDir); err != nil {
		b.Fatal(err)
	}
	if err := dust.New(l).SaveIndex(idxDir); err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ll, err := lake.Load(lakeDir)
			if err != nil {
				b.Fatal(err)
			}
			dust.New(ll)
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dust.LoadPipeline(lakeDir, idxDir); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWithTable is the micro view of a served PUT and DELETE
// (serve.put_p50_ms, serve.delete_p50_ms): one WithTable successor of a
// pipeline over a lake shaped like the benchmark's balanced, tall or wide
// workload (seed 7, its knobs), adding a fresh spec table as the
// benchmark's PUTs do, and that successor's WithoutTable successor. The
// base pipeline is never written, so every pair starts from it. put-ns/op
// and delete-ns/op split the pair. Run it alone:
//
//	go test -run '^$' -bench BenchmarkWithTable -benchtime 100x .
func BenchmarkWithTable(b *testing.B) {
	for _, shape := range []struct {
		name         string
		tables, rows int
	}{{"balanced", 500, 40}, {"tall", 300, 120}, {"wide", 8000, 12}} {
		b.Run(shape.name, func(b *testing.B) {
			spec, err := datagen.ParseLakeSpec(fmt.Sprintf(
				"tables=%d,rows=%d,zipf=1.5,parents=11,fk=0.3,null=0.01,seed=7", shape.tables, shape.rows))
			if err != nil {
				b.Fatal(err)
			}
			p := dust.New(spec.Generate())
			puts := make([]*table.Table, 16)
			for i := range puts {
				puts[i] = spec.Table(spec.Tables + i)
			}
			var putNS, deleteNS time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := puts[i%len(puts)]
				t0 := time.Now()
				next, err := p.WithTable(t)
				t1 := time.Now()
				if err == nil {
					_, err = next.WithoutTable(t.Name)
				}
				putNS, deleteNS = putNS+t1.Sub(t0), deleteNS+time.Since(t1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(putNS.Nanoseconds())/float64(b.N), "put-ns/op")
			b.ReportMetric(float64(deleteNS.Nanoseconds())/float64(b.N), "delete-ns/op")
		})
	}
}

// BenchmarkParallelPipeline measures the end-to-end quick pipeline (index +
// search) at workers=1 vs workers=NumCPU, the parallel speedup. The lake
// index is rebuilt inside the timed loop: index
// construction is a parallelized hot path, and serving-side TopK/embedding/
// diversification parallelism is covered by the same Search call.
func BenchmarkParallelPipeline(b *testing.B) {
	bench := datagen.Generate("bench-parallel", datagen.Config{
		Seed: 995, Domains: 4, TablesPerBase: 6, BaseRows: 80, MinRows: 20, MaxRows: 40,
	})
	q := bench.Queries[0]
	for _, workers := range benchWorkerCounts() {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := dust.New(bench.Lake, dust.WithWorkers(workers))
				if _, err := p.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorkerCounts is {1, NumCPU} on multi-core machines and {1} on a
// single core, where the second entry would just duplicate the first.
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkSearchBatch measures concurrent query serving over the bounded
// worker pool at workers=1 vs workers=NumCPU.
func BenchmarkSearchBatch(b *testing.B) {
	bench := datagen.Generate("bench-batch", datagen.Config{
		Seed: 996, Domains: 4, TablesPerBase: 5, BaseRows: 60, MinRows: 15, MaxRows: 30,
	})
	for _, workers := range benchWorkerCounts() {
		p := dust.New(bench.Lake, dust.WithWorkers(workers))
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.SearchBatch(bench.Queries, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkTupleEmbedding(b *testing.B) {
	b.ReportAllocs()
	enc := embed.NewRoBERTa()
	headers := []string{"Park Name", "Supervisor", "City", "Country"}
	values := []string{"River Park", "Vera Onate", "Fresno", "USA"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeTuple(headers, values)
	}
}

func BenchmarkModelEncode(b *testing.B) {
	b.ReportAllocs()
	bench := datagen.Generate("bench-model", datagen.Config{
		Seed: 992, Domains: 4, TablesPerBase: 4, BaseRows: 40, MinRows: 8, MaxRows: 16,
	})
	ds := datagen.Pairs(bench, 300, 993)
	cfg := model.DefaultConfig()
	cfg.Epochs = 3
	m := model.Train("bench", model.NewRoBERTaFeaturizer(), ds.Train, ds.Val, cfg)
	headers := []string{"Title", "Director", "Year"}
	values := []string{"Silent Harbor", "Maria Silva", "2004"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EncodeTuple(headers, values)
	}
}

func BenchmarkStarmieIndexAndSearch(b *testing.B) {
	b.ReportAllocs()
	bench := datagen.Generate("bench-starmie", datagen.Config{
		Seed: 994, Domains: 4, TablesPerBase: 6, BaseRows: 50, MinRows: 10, MaxRows: 25,
	})
	s := search.NewStarmie(bench.Lake)
	q := bench.Queries[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.TopK(s, q, 6)
	}
}

// benchProblem builds a reusable synthetic diversification workload.
func benchProblem(s int) diversify.Problem {
	tuples := make([]vector.Vec, s)
	state := uint64(1)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40)/float64(1<<24) - 0.5
	}
	for i := range tuples {
		v := make(vector.Vec, 16)
		for j := range v {
			v[j] = next()
		}
		tuples[i] = v
	}
	query := tuples[:5]
	return diversify.Problem{Query: query, Tuples: tuples[5:], K: 20, Dist: vector.CosineDistance}
}

func BenchmarkDiversifyDUST(b *testing.B) {
	b.ReportAllocs()
	p := benchProblem(1000)
	algo := diversify.NewDUST()
	algo.S = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.Select(p)
	}
}
