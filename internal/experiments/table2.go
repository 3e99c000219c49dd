package experiments

import (
	"time"

	"dust/internal/datagen"
	"dust/internal/diversify"
	"dust/internal/experiments/baselines"
	"dust/internal/model"
	"dust/internal/vector"
)

// diversificationProblem builds one per-query diversification instance:
// the query's tuples and all tuples of its ground-truth unionable tables,
// embedded with the fine-tuned DUST model, capped at s candidates (§6.4.3
// uses s <= 2500).
func diversificationProblem(b *datagen.Benchmark, queryIdx, k, s int, m *model.Model) diversify.Problem {
	q := b.Queries[queryIdx]
	eq := make([]vector.Vec, q.NumRows())
	headers := q.Headers()
	for i := range eq {
		eq[i] = m.EncodeTuple(headers, q.Row(i))
	}
	var et []vector.Vec
	var groups []int
	for gi, tn := range b.Unionable[q.Name] {
		t := b.Lake.Get(tn)
		th := t.Headers()
		for r := 0; r < t.NumRows(); r++ {
			if len(et) >= s {
				break
			}
			et = append(et, m.EncodeTuple(th, t.Row(r)))
			groups = append(groups, gi)
		}
	}
	return diversify.Problem{Query: eq, Tuples: et, Groups: groups, K: k, Dist: vector.CosineDistance}
}

// table2Result holds per-method win counts and mean runtime.
type table2Result struct {
	avgWins, minWins int
	meanTime         time.Duration
}

// runTable2 evaluates the algorithms on one benchmark: per query, each
// algorithm's Average and Min Diversity are computed and the best method
// per metric gets a win (§6.4.3's reporting).
func runTable2(b *datagen.Benchmark, algos []baselines.Algorithm, k, s, maxQueries int, m *model.Model) map[string]*table2Result {
	out := map[string]*table2Result{}
	for _, a := range algos {
		out[a.Name()] = &table2Result{}
	}
	nq := len(b.Queries)
	if maxQueries > 0 && nq > maxQueries {
		nq = maxQueries
	}
	var totalTime = map[string]time.Duration{}
	for qi := 0; qi < nq; qi++ {
		p := diversificationProblem(b, qi, k, s, m)
		if len(p.Tuples) == 0 {
			continue
		}
		bestAvg, bestMin := -1.0, -1.0
		var avgWinner, minWinner string
		for _, a := range algos {
			// CLT's time is only printed; the others' feed the shape checks.
			sel, dt := timeAlgo(a, p, checkedRuns(a.Name() != "clt"))
			totalTime[a.Name()] += dt
			chosen := diversify.Gather(p.Tuples, sel)
			avg := diversify.AverageDiversity(p.Query, chosen, p.Dist)
			min := diversify.MinDiversity(p.Query, chosen, p.Dist)
			if avg > bestAvg {
				bestAvg, avgWinner = avg, a.Name()
			}
			if min > bestMin {
				bestMin, minWinner = min, a.Name()
			}
		}
		out[avgWinner].avgWins++
		out[minWinner].minWins++
	}
	for _, a := range algos {
		if nq > 0 {
			out[a.Name()].meanTime = totalTime[a.Name()] / time.Duration(nq)
		}
	}
	return out
}

// Table2 reproduces the diversification effectiveness/efficiency table:
// win counts for Average and Min Diversity plus mean time per query, for
// GMC, GNE (UGEN-V1 only — it does not scale, as in the paper), CLT, and
// DUST on SANTOS and UGEN-V1.
func Table2(cfg Config) *Report {
	dustModel, _, _, _ := Models()

	kSantos := cfg.scale(30, 100)
	sCap := 2500
	maxQ := cfg.scale(4, 0)

	santosAlgos := []baselines.Algorithm{baselines.NewGMC(), baselines.CLT{}, diversify.NewDUST()}
	ugenAlgos := []baselines.Algorithm{baselines.NewGMC(), baselines.NewGNE(), baselines.CLT{}, diversify.NewDUST()}

	santos := runTable2(benchSANTOS(), santosAlgos, kSantos, sCap, maxQ, dustModel)
	ugen := runTable2(benchUGEN(), ugenAlgos, 30, sCap, maxQ, dustModel)

	r := &Report{
		Title: "Table 2 — Diversification wins and mean time per query",
		Columns: []string{"Method",
			"SANTOS #Avg", "SANTOS #Min", "SANTOS ms",
			"UGEN #Avg", "UGEN #Min", "UGEN ms"},
	}
	for _, name := range []string{"gmc", "gne", "clt", "dust"} {
		row := []string{name}
		if res, ok := santos[name]; ok {
			row = append(row, d(res.avgWins), d(res.minWins), d(int(res.meanTime.Milliseconds())))
		} else {
			row = append(row, "-", "-", "-")
		}
		if res, ok := ugen[name]; ok {
			row = append(row, d(res.avgWins), d(res.minWins), d(int(res.meanTime.Milliseconds())))
		} else {
			row = append(row, "-", "-", "-")
		}
		r.AddRow(row...)
	}
	r.Note("paper shape: DUST best Min Diversity almost everywhere; DUST or GMC best Average; GNE slowest by far; DUST ~ CLT speed, much faster than GMC")
	r.Note("shape dust wins min-diversity: %s (SANTOS %d, UGEN %d)",
		passFail(santos["dust"].minWins >= santos["gmc"].minWins && ugen["dust"].minWins >= ugen["gmc"].minWins),
		santos["dust"].minWins, ugen["dust"].minWins)
	r.Note("shape dust faster than gmc on SANTOS: %s (%v vs %v)",
		passFail(santos["dust"].meanTime < santos["gmc"].meanTime),
		santos["dust"].meanTime, santos["gmc"].meanTime)
	r.Note("shape gne slowest on UGEN: %s (%v)",
		passFail(ugen["gne"].meanTime >= ugen["gmc"].meanTime && ugen["gne"].meanTime >= ugen["dust"].meanTime),
		ugen["gne"].meanTime)
	return r
}

// Table2Random runs the §6.4.3 random-baseline comparison: five random
// seeds per query, best random score per metric vs DUST.
func Table2Random(cfg Config) *Report {
	dustModel, _, _, _ := Models()
	maxQ := cfg.scale(4, 0)

	r := &Report{
		Title:   "§6.4.3 — DUST vs best-of-5 random selections",
		Columns: []string{"Benchmark", "Queries", "DUST Avg wins", "DUST Min wins"},
	}
	for _, bench := range []struct {
		b *datagen.Benchmark
		k int
	}{{benchSANTOS(), cfg.scale(30, 100)}, {benchUGEN(), 30}} {
		nq := len(bench.b.Queries)
		if maxQ > 0 && nq > maxQ {
			nq = maxQ
		}
		dustAvgWins, dustMinWins := 0, 0
		for qi := 0; qi < nq; qi++ {
			p := diversificationProblem(bench.b, qi, bench.k, 2500, dustModel)
			if len(p.Tuples) == 0 {
				continue
			}
			sel := diversify.NewDUST().Select(p)
			chosen := diversify.Gather(p.Tuples, sel)
			dAvg := diversify.AverageDiversity(p.Query, chosen, p.Dist)
			dMin := diversify.MinDiversity(p.Query, chosen, p.Dist)
			bestRAvg, bestRMin := 0.0, 0.0
			for seed := int64(1); seed <= 5; seed++ {
				rsel := baselines.Random{Seed: seed}.Select(p)
				rch := diversify.Gather(p.Tuples, rsel)
				if a := diversify.AverageDiversity(p.Query, rch, p.Dist); a > bestRAvg {
					bestRAvg = a
				}
				if m := diversify.MinDiversity(p.Query, rch, p.Dist); m > bestRMin {
					bestRMin = m
				}
			}
			if dAvg >= bestRAvg {
				dustAvgWins++
			}
			if dMin >= bestRMin {
				dustMinWins++
			}
		}
		r.AddRow(bench.b.Name, d(nq), d(dustAvgWins), d(dustMinWins))
	}
	r.Note("paper: DUST beats best-of-5 random on 46/50 SANTOS queries (Average) and all but one (Min)")
	return r
}
