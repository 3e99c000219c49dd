package experiments

import (
	"sort"

	"dust/internal/diversify"
	"dust/internal/experiments/baselines"
	"dust/internal/vector"
)

// AblationTupleVsTable quantifies the paper's central design decision
// (Fig. 2 discussion): diversify tuples, not tables. The table-level
// alternative picks the most mutually diverse whole tables (by mean tuple
// embedding) and returns their tuples; DUST picks tuples directly. Both
// produce k tuples and are scored with the §5.4 metrics.
func AblationTupleVsTable(cfg Config) *Report {
	dustModel, _, _, _ := Models()
	b := benchSANTOS()
	k := cfg.scale(30, 100)
	maxQ := cfg.scale(3, 0)
	nq := len(b.Queries)
	if maxQ > 0 && nq > maxQ {
		nq = maxQ
	}

	var tupleAvg, tupleMin, tableAvg, tableMin float64
	count := 0
	for qi := 0; qi < nq; qi++ {
		p := diversificationProblem(b, qi, k, 2500, dustModel)
		if len(p.Tuples) == 0 {
			continue
		}
		// Tuple-level: DUST.
		sel := diversify.NewDUST().Select(p)
		chosen := diversify.Gather(p.Tuples, sel)
		tupleAvg += diversify.AverageDiversity(p.Query, chosen, p.Dist)
		tupleMin += diversify.MinDiversity(p.Query, chosen, p.Dist)

		// Table-level: rank source tables by the diversity of their mean
		// embedding vs the query, then take whole tables until k tuples.
		groups := map[int][]int{}
		for i, g := range p.Groups {
			groups[g] = append(groups[g], i)
		}
		type gd struct {
			g    int
			dist float64
		}
		var ranked []gd
		for g, members := range groups {
			mean := vector.Mean(diversify.Gather(p.Tuples, members))
			minD := -1.0
			for _, q := range p.Query {
				if dd := p.Dist(mean, q); minD < 0 || dd < minD {
					minD = dd
				}
			}
			ranked = append(ranked, gd{g, minD})
		}
		sort.Slice(ranked, func(a, b int) bool {
			if ranked[a].dist != ranked[b].dist {
				return ranked[a].dist > ranked[b].dist
			}
			return ranked[a].g < ranked[b].g
		})
		var tableSel []int
		for _, r := range ranked {
			for _, i := range groups[r.g] {
				if len(tableSel) >= k {
					break
				}
				tableSel = append(tableSel, i)
			}
			if len(tableSel) >= k {
				break
			}
		}
		tChosen := diversify.Gather(p.Tuples, tableSel)
		tableAvg += diversify.AverageDiversity(p.Query, tChosen, p.Dist)
		tableMin += diversify.MinDiversity(p.Query, tChosen, p.Dist)
		count++
	}
	if count > 0 {
		tupleAvg /= float64(count)
		tupleMin /= float64(count)
		tableAvg /= float64(count)
		tableMin /= float64(count)
	}

	r := &Report{
		Title:   "Ablation — tuple-level vs table-level diversification (SANTOS)",
		Columns: []string{"Granularity", "Avg Diversity", "Min Diversity"},
	}
	r.AddRow("tables (whole)", f3(tableAvg), f3(tableMin))
	r.AddRow("tuples (DUST)", f3(tupleAvg), f3(tupleMin))
	r.Note("shape tuple-level wins: %s (avg %.3f vs %.3f, min %.3f vs %.3f)",
		passFail(tupleAvg > tableAvg && tupleMin >= tableMin),
		tupleAvg, tableAvg, tupleMin, tableMin)
	return r
}

// AblationMedoid compares DUST's medoid cluster representative against a
// random member (the §5.2 robustness argument).
func AblationMedoid(cfg Config) *Report {
	dustModel, _, _, _ := Models()
	b := benchSANTOS()
	k := cfg.scale(30, 100)
	maxQ := cfg.scale(3, 0)
	nq := len(b.Queries)
	if maxQ > 0 && nq > maxQ {
		nq = maxQ
	}

	medoid := diversify.NewDUST()
	random := diversify.NewDUST()
	random.RandomRep = true
	random.RepSeed = 77

	var medoidMin, randomMin float64
	count := 0
	for qi := 0; qi < nq; qi++ {
		p := diversificationProblem(b, qi, k, 2500, dustModel)
		if len(p.Tuples) == 0 {
			continue
		}
		ms := diversify.Gather(p.Tuples, medoid.Select(p))
		rs := diversify.Gather(p.Tuples, random.Select(p))
		medoidMin += diversify.MinDiversity(p.Query, ms, p.Dist)
		randomMin += diversify.MinDiversity(p.Query, rs, p.Dist)
		count++
	}
	if count > 0 {
		medoidMin /= float64(count)
		randomMin /= float64(count)
	}
	r := &Report{
		Title:   "Ablation — medoid vs random cluster representative (SANTOS)",
		Columns: []string{"Representative", "Min Diversity"},
	}
	r.AddRow("medoid", f3(medoidMin))
	r.AddRow("random member", f3(randomMin))
	// A lucky random representative can edge out the medoid on one run;
	// the claim being checked is robustness, not strict dominance.
	r.Note("medoids are the paper's choice for outlier robustness; shape medoid >= random*0.85: %s", passFail(medoidMin >= randomMin*0.85))
	return r
}

// AblationDistance re-runs the Table 2 win comparison under euclidean and
// manhattan distances; the paper notes the relative ordering of the
// algorithms is stable across distances (§6.4.1). SANTOS is used because
// its larger tuple pools give the algorithms room to differ.
func AblationDistance(cfg Config) *Report {
	dustModel, _, _, _ := Models()
	b := benchSANTOS()
	maxQ := cfg.scale(3, 0)
	k := cfg.scale(30, 100)

	r := &Report{
		Title:   "Ablation — distance function stability (SANTOS)",
		Columns: []string{"Distance", "DUST #Min wins", "CLT #Min wins", "GMC #Min wins"},
	}
	stable := true
	for _, name := range vector.DistanceNames() {
		dist, _ := vector.Distance(name)
		wins := map[string]int{}
		nq := len(b.Queries)
		if maxQ > 0 && nq > maxQ {
			nq = maxQ
		}
		for qi := 0; qi < nq; qi++ {
			p := diversificationProblem(b, qi, k, 2500, dustModel)
			p.Dist = dist
			if len(p.Tuples) == 0 {
				continue
			}
			bestMin, winner := -1.0, ""
			for _, a := range []baselines.Algorithm{baselines.NewGMC(), baselines.CLT{}, diversify.NewDUST()} {
				sel := diversify.Gather(p.Tuples, a.Select(p))
				if m := diversify.MinDiversity(p.Query, sel, dist); m > bestMin {
					bestMin, winner = m, a.Name()
				}
			}
			wins[winner]++
		}
		r.AddRow(name, d(wins["dust"]), d(wins["clt"]), d(wins["gmc"]))
		if wins["dust"] < wins["clt"] || wins["dust"] < wins["gmc"] {
			stable = false
		}
	}
	r.Note("shape DUST leads min-diversity under every distance: %s", passFail(stable))
	return r
}
