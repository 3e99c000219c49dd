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
	"strings"
	"testing"

	"dust"
	"dust/internal/datagen"
	"dust/internal/diversify"
	"dust/internal/embed"
	"dust/internal/experiments"
	"dust/internal/lake"
	"dust/internal/model"
	"dust/internal/search"
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
