package experiments

import (
	"math"
	"math/rand"
	"time"

	"dust/internal/diversify"
	"dust/internal/experiments/baselines"
	"dust/internal/vector"
)

// syntheticProblem builds the Fig. 7 scalability workload: s unionable
// tuple embeddings drawn from a mixture of topic clusters (mimicking the
// embedding geometry of real unionable tuples) plus a small query set.
func syntheticProblem(s, k int, seed int64) diversify.Problem {
	rng := rand.New(rand.NewSource(seed))
	const dim = 32
	const clusters = 20
	centers := make([]vector.Vec, clusters)
	for c := range centers {
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		centers[c] = vector.Normalize(v)
	}
	tuples := make([]vector.Vec, s)
	groups := make([]int, s)
	for i := range tuples {
		c := rng.Intn(clusters)
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = centers[c][j] + rng.NormFloat64()*0.15
		}
		tuples[i] = v
		groups[i] = c % 10 // ten source tables
	}
	query := make([]vector.Vec, 10)
	for i := range query {
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = centers[0][j] + rng.NormFloat64()*0.1
		}
		query[i] = v
	}
	return diversify.Problem{Query: query, Tuples: tuples, Groups: groups, K: k, Dist: vector.CosineDistance}
}

// timingRuns is how many times a point a shape check compares runs: the
// fastest run is the one least disturbed by whatever else shares the
// machine, so the check reads the algorithms, not the neighbours. A point
// only printed runs once.
const timingRuns = 5

// timeAlgo runs one algorithm runs times, back to back, and returns its
// selection and the shortest wall time.
func timeAlgo(a baselines.Algorithm, p diversify.Problem, runs int) ([]int, time.Duration) {
	var sel []int
	best := time.Duration(math.MaxInt64)
	for range runs {
		start := time.Now()
		sel = a.Select(p)
		best = min(best, time.Since(start))
	}
	return sel, best
}

// checkedRuns is how often a point runs: timingRuns when a shape check
// compares it, once when it is only printed.
func checkedRuns(checked bool) int {
	if checked {
		return timingRuns
	}
	return 1
}

// Fig7 reproduces the two scalability plots: runtime vs number of input
// tuples s (k=100) and runtime vs output size k (s=5000), for GMC, CLT,
// and DUST (GNE is excluded: the paper could not scale it past UGEN-V1).
func Fig7(cfg Config) *Report {
	sValues := []int{1000, 2000, 3000, 4000, 5000, 6000}
	kValues := []int{100, 200, 300, 400, 500}
	kFixed, sFixed := 100, 5000
	if cfg.Quick {
		sValues = []int{500, 1000, 1500}
		kValues = []int{50, 100}
		kFixed, sFixed = 50, 1500
	}
	// DUST's prune cap must sit inside the sweep range for its sub-GMC
	// scaling to be visible (the paper prunes to 2500 within a 1K-6K
	// sweep); in quick mode the cap shrinks with the sweep.
	dustAlgo := diversify.NewDUST()
	dustAlgo.S = cfg.scale(sValues[0], 2500)
	algos := []baselines.Algorithm{baselines.NewGMC(), baselines.CLT{}, dustAlgo}

	r := &Report{
		Title:   "Fig. 7 — Diversification runtime (ms)",
		Columns: []string{"Sweep", "Param", "gmc", "clt", "dust"},
	}
	// The shape checks compare GMC and DUST at both ends of the s sweep and
	// DUST at both ends of the k sweep; CLT and the points between are only
	// printed.
	sLo, sHi := sValues[0], sValues[len(sValues)-1]
	kLo, kHi := kValues[0], kValues[len(kValues)-1]
	gmcTimes := map[int]time.Duration{}
	dustTimes := map[int]time.Duration{}
	for _, s := range sValues {
		p := syntheticProblem(s, kFixed, 42)
		row := []string{"s (k=100)", d(s)}
		for _, a := range algos {
			_, dt := timeAlgo(a, p, checkedRuns(a.Name() != "clt" && (s == sLo || s == sHi)))
			if a.Name() == "gmc" {
				gmcTimes[s] = dt
			}
			if a.Name() == "dust" {
				dustTimes[s] = dt
			}
			row = append(row, d(int(dt.Milliseconds())))
		}
		r.AddRow(row...)
	}
	var dustKTimes []time.Duration
	for _, k := range kValues {
		p := syntheticProblem(sFixed, k, 43)
		row := []string{"k (s=5000)", d(k)}
		for _, a := range algos {
			_, dt := timeAlgo(a, p, checkedRuns(a.Name() == "dust" && (k == kLo || k == kHi)))
			if a.Name() == "dust" {
				dustKTimes = append(dustKTimes, dt)
			}
			row = append(row, d(int(dt.Milliseconds())))
		}
		r.AddRow(row...)
	}

	// Shape checks: GMC superlinear in s, DUST sublinear (prune cap), and
	// DUST roughly flat in k.
	ratio := float64(sHi) / float64(sLo)
	gmcGrowth := safeRatio(gmcTimes[sHi], gmcTimes[sLo])
	dustGrowth := safeRatio(dustTimes[sHi], dustTimes[sLo])
	r.Note("paper shape: GMC grows quadratically with s; DUST near-linear with small slope; DUST flat in k")
	r.Note("shape gmc superlinear in s: %s (x%.1f time for x%.1f input)", passFail(gmcGrowth > ratio), gmcGrowth, ratio)
	r.Note("shape dust grows slower than gmc: %s (x%.1f vs x%.1f)", passFail(dustGrowth < gmcGrowth), dustGrowth, gmcGrowth)
	if len(dustKTimes) >= 2 {
		kGrowth := safeRatio(dustKTimes[len(dustKTimes)-1], dustKTimes[0])
		r.Note("shape dust ~flat in k: %s (x%.1f time for x%.1f k)", passFail(kGrowth < 3),
			kGrowth, float64(kValues[len(kValues)-1])/float64(kValues[0]))
	}
	return r
}

func safeRatio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// PruneAblation reproduces Appendix A.2.3: mean diversification time with
// and without the pruning step on an oversized tuple pool (the paper: 10k
// tuples pruned to 2500 cut per-query time from 990 s to 85 s without
// hurting effectiveness).
func PruneAblation(cfg Config) *Report {
	s := cfg.scale(3000, 8000)
	k := cfg.scale(50, 100)
	p := syntheticProblem(s, k, 44)

	withPrune := diversify.NewDUST()
	withPrune.S = cfg.scale(800, 2500)
	noPrune := diversify.NewDUST()
	noPrune.DisablePrune = true

	selWith, tWith := timeAlgo(withPrune, p, timingRuns)
	selWithout, tWithout := timeAlgo(noPrune, p, timingRuns)
	avgWith := diversify.AverageDiversity(p.Query, diversify.Gather(p.Tuples, selWith), p.Dist)
	avgWithout := diversify.AverageDiversity(p.Query, diversify.Gather(p.Tuples, selWithout), p.Dist)

	r := &Report{
		Title:   "App. A.2.3 — Pruning influence on DUST",
		Columns: []string{"Variant", "Time ms", "Average Diversity"},
	}
	r.AddRow("with pruning", d(int(tWith.Milliseconds())), f3(avgWith))
	r.AddRow("without pruning", d(int(tWithout.Milliseconds())), f3(avgWithout))
	r.Note("paper: 990 s -> 85 s per query with pruning, no effectiveness loss")
	r.Note("shape pruning speeds up: %s (x%.1f)", passFail(tWith < tWithout), safeRatio(tWithout, tWith))
	r.Note("shape effectiveness preserved: %s (%.3f vs %.3f)", passFail(avgWith > avgWithout*0.9), avgWith, avgWithout)
	return r
}
