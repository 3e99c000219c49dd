package experiments

import (
	"errors"

	"dust/internal/datagen"
	"dust/internal/diversify"
	"dust/internal/experiments/baselines"
	"dust/internal/llm"
	"dust/internal/model"
	"dust/internal/table"
	"dust/internal/vector"
)

// tupleSource is a Table 3 contender: it produces k output tuples for a
// query, each as (headers, values); diversity is always scored with DUST
// embeddings for fairness (§6.5.1).
type tupleSource interface {
	name() string
	tuples(q *table.Table, k int) ([][]string, [][]string, error)
}

// dustSource runs the full DUST pipeline against the lake.
type dustSource struct {
	b *datagen.Benchmark
	m *model.Model
}

func (s dustSource) name() string { return "dust" }

func (s dustSource) tuples(q *table.Table, k int) ([][]string, [][]string, error) {
	p := pipelineFor(s.b, s.m)
	res, err := p.Search(q, k)
	if err != nil {
		return nil, nil, err
	}
	return tableTuples(res.Tuples)
}

// starmieSource is the tuple-level Starmie adaptation.
type starmieSource struct {
	ts *baselines.TupleSearch
}

func (s starmieSource) name() string { return "starmie" }

func (s starmieSource) tuples(q *table.Table, k int) ([][]string, [][]string, error) {
	hits := s.ts.TopK(q, k)
	hs := make([][]string, len(hits))
	vs := make([][]string, len(hits))
	for i, h := range hits {
		hs[i] = h.Table.Headers()
		vs[i] = h.Table.Row(h.Row)
	}
	return hs, vs, nil
}

// llmSource generates tuples with the simulated LLM.
type llmSource struct {
	g *llm.Generator
}

func (s llmSource) name() string { return "llm" }

func (s llmSource) tuples(q *table.Table, k int) ([][]string, [][]string, error) {
	rows, err := s.g.Generate(q, k)
	if err != nil {
		return nil, nil, err
	}
	headers := q.Headers()
	hs := make([][]string, len(rows))
	vs := make([][]string, len(rows))
	for i, row := range rows {
		hs[i] = headers
		vs[i] = row
	}
	return hs, vs, nil
}

func tableTuples(t *table.Table) ([][]string, [][]string, error) {
	headers := t.Headers()
	hs := make([][]string, t.NumRows())
	vs := make([][]string, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		hs[i] = headers
		vs[i] = t.Row(i)
	}
	return hs, vs, nil
}

// runTable3 counts, per benchmark, the queries where each source yields
// the best Average / Min Diversity under DUST embeddings.
func runTable3(b *datagen.Benchmark, sources []tupleSource, k, maxQueries int, m *model.Model) (avgWins, minWins map[string]int, llmSkipped int) {
	avgWins = map[string]int{}
	minWins = map[string]int{}
	nq := len(b.Queries)
	if maxQueries > 0 && nq > maxQueries {
		nq = maxQueries
	}
	for qi := 0; qi < nq; qi++ {
		q := b.Queries[qi]
		qh := q.Headers()
		eq := make([]vector.Vec, q.NumRows())
		for i := range eq {
			eq[i] = m.EncodeTuple(qh, q.Row(i))
		}
		bestAvg, bestMin := -1.0, -1.0
		var avgWinner, minWinner string
		for _, src := range sources {
			hs, vs, err := src.tuples(q, k)
			if err != nil {
				var limit llm.ErrTokenLimit
				if errors.As(err, &limit) {
					llmSkipped++
					continue
				}
				continue
			}
			sel := make([]vector.Vec, len(vs))
			for i := range vs {
				sel[i] = m.EncodeTuple(hs[i], vs[i])
			}
			avg := diversify.AverageDiversity(eq, sel, vector.CosineDistance)
			min := diversify.MinDiversity(eq, sel, vector.CosineDistance)
			if avg > bestAvg {
				bestAvg, avgWinner = avg, src.name()
			}
			if min > bestMin {
				bestMin, minWinner = min, src.name()
			}
		}
		if avgWinner != "" {
			avgWins[avgWinner]++
		}
		if minWinner != "" {
			minWins[minWinner]++
		}
	}
	return avgWins, minWins, llmSkipped
}

// Table3 reproduces the end-to-end comparison against table search
// techniques: DUST vs Starmie-as-tuple-search on SANTOS, plus the LLM on
// UGEN-V1 (the LLM is excluded from SANTOS by its token limit, exactly as
// in the paper).
func Table3(cfg Config) *Report {
	dustModel, _, _, _ := Models()
	maxQ := cfg.scale(3, 0)
	kSantos := cfg.scale(30, 100)

	// The LLM's prompt budget scales with the corpus: the paper's GPT-3
	// budget is exceeded by full-size SANTOS query tables; our corpus is
	// ~10x smaller, so the budget shrinks accordingly. UGEN queries
	// (~10 rows) fit; SANTOS queries (40-120 rows) do not — reproducing
	// the paper's exclusion of the LLM on SANTOS.
	scaledLLM := func() *llm.Generator {
		g := llm.New()
		g.TokenBudget = 400
		return g
	}
	santos := benchSANTOS()
	santosSources := []tupleSource{
		dustSource{santos, dustModel},
		starmieSource{baselines.NewTupleSearch(santos.Lake.Tables(), 0)},
		llmSource{scaledLLM()}, // hits the token limit on SANTOS queries
	}
	sAvg, sMin, sSkipped := runTable3(santos, santosSources, kSantos, maxQ, dustModel)

	ugen := benchUGEN()
	ugenSources := []tupleSource{
		dustSource{ugen, dustModel},
		starmieSource{baselines.NewTupleSearch(ugen.Lake.Tables(), 0)},
		llmSource{scaledLLM()},
	}
	uAvg, uMin, _ := runTable3(ugen, ugenSources, 30, maxQ, dustModel)

	r := &Report{
		Title:   "Table 3 — DUST vs table search techniques (win counts)",
		Columns: []string{"Method", "SANTOS #Avg", "SANTOS #Min", "UGEN #Avg", "UGEN #Min"},
	}
	for _, name := range []string{"starmie", "llm", "dust"} {
		sa, sm := "-", "-"
		if name != "llm" { // LLM excluded on SANTOS
			sa, sm = d(sAvg[name]), d(sMin[name])
		}
		r.AddRow(name, sa, sm, d(uAvg[name]), d(uMin[name]))
	}
	r.Note("LLM generations skipped on SANTOS due to token limit: %d (paper excludes the LLM there for the same reason)", sSkipped)
	r.Note("paper shape: DUST best for ~90%% of SANTOS queries and the most UGEN queries; LLM second on UGEN; Starmie last (it favours tuples already in the query)")
	r.Note("shape dust wins SANTOS: %s (avg %d vs starmie %d)", passFail(sAvg["dust"] > sAvg["starmie"]), sAvg["dust"], sAvg["starmie"])
	r.Note("shape dust wins UGEN: %s (avg %d, llm %d, starmie %d)",
		passFail(uAvg["dust"] >= uAvg["llm"] && uAvg["dust"] >= uAvg["starmie"]),
		uAvg["dust"], uAvg["llm"], uAvg["starmie"])
	return r
}
