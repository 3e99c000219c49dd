package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"dust"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile is the q-quantile of xs with linear interpolation between the
// two nearest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// traffic is the client's books over the rounds of a run, with every 200
// search checked.
type traffic struct {
	attempted, failed int // measured-window requests, and those without their success status
	searches          int // window searches sent
	searchLat         []float64
	hitLat            []float64 // window searches served from the cache
	putLat, deleteLat []float64 // successful mutations, any phase
	lag               []float64 // window requests
	respBytes         []float64
	withinSLO         int
	avgDiversity      float64
	novel, tuples     int
	answers           int           // checked 200 searches in the window
	settled           []*answer     // first-round answer per pool position
	cpu               time.Duration // the servers' over the windows
	setups            []float64     // seconds, at the host's quiet speed
	rawSetups         []float64     // seconds, as timed
	// Of the host, see calib.go: the fastest calibration unit of the run, and
	// the slowdown over the windows and over the first round's candidates.
	quiet, slowdown, settleSlowdown float64
	rssMB                           float64 // largest over rounds
	epochs                          uint64  // mutations the servers applied, by their epoch counters
	samples                         string  // sample counts, for the report
}

// tally checks and counts what the rounds saw. An error is a wrong output
// (a malformed or unfounded answer, or books that do not balance), not a
// failed request: those are counted.
func tally(in *inputs, pool []int, rounds []round) (*traffic, error) {
	t := &traffic{settled: make([]*answer, len(pool))}
	chk := newChecker(in)
	var divSum float64
	t.quiet = quietUnit(rounds)
	t.settleSlowdown = slowdown(rounds[0].settleUnits, t.quiet)
	var windowUnits []float64
	for r := range rounds {
		rd := &rounds[r]
		okSearches, okMutations := 0, 0
		for i := range rd.samples {
			s := &rd.samples[i]
			var a *answer
			if s.kind == opSearch && s.ok() {
				var err error
				if a, err = chk.check(&in.queries[pool[s.query]], s.body); err != nil {
					return nil, err
				}
			}
			switch s.phase {
			case phaseSettle:
				t.settled[s.query] = a
				continue
			case phaseMutate:
				if !s.ok() {
					return nil, fmt.Errorf("%s after the window: status %d %v: %s", s.kind, s.status, s.err, s.body)
				}
			case phaseWindow:
				t.attempted++
				t.lag = append(t.lag, ms(s.lag))
				if !s.ok() {
					t.failed++
				}
			}
			switch {
			case s.kind == opSearch:
				t.searches++
				if a == nil {
					continue
				}
				okSearches++
				t.searchLat = append(t.searchLat, ms(s.lat))
				t.respBytes = append(t.respBytes, float64(len(s.body)))
				if s.lat <= sloLimit {
					t.withinSLO++
				}
				if a.Cached {
					t.hitLat = append(t.hitLat, ms(s.lat))
				}
				divSum += a.avgDiversity
				t.novel += a.novel
				t.tuples += a.total
				t.answers++
				// Without mutations or degradation the pipeline is a function
				// of the query: every answer must repeat the first one.
				if first := t.settled[s.query]; !in.w.open && first != nil && !sameAnswer(first, a) {
					return nil, fmt.Errorf("query %d: answer changed between requests on an unchanged lake", pool[s.query])
				}
			case s.ok():
				okMutations++
				if s.kind == opPut {
					t.putLat = append(t.putLat, ms(s.lat))
				} else {
					t.deleteLat = append(t.deleteLat, ms(s.lat))
				}
			}
		}
		// The server's books must agree with the client's.
		if got := int(rd.after.Searches - rd.before.Searches); got != okSearches {
			return nil, fmt.Errorf("round %d: client saw %d searches answered, server counted %d", r, okSearches, got)
		}
		if got := int(rd.after.Mutations - rd.before.Mutations); got != okMutations {
			return nil, fmt.Errorf("round %d: client saw %d mutations applied, server counted %d", r, okMutations, got)
		}
		t.epochs += rd.after.Epoch - rd.before.Epoch
		t.cpu += rd.cpu
		t.rawSetups = append(t.rawSetups, rd.setup.Seconds())
		t.setups = append(t.setups, rd.setup.Seconds()/slowdown(rd.setupUnits, t.quiet))
		windowUnits = append(windowUnits, rd.windowUnits...)
		t.rssMB = max(t.rssMB, rd.rssMB)
	}
	if t.answers == 0 {
		return nil, fmt.Errorf("no search was answered in the measured window")
	}
	t.avgDiversity = divSum / float64(t.answers)
	t.slowdown = slowdown(windowUnits, t.quiet)
	t.samples = fmt.Sprintf("%d searches, %d PUTs, %d DELETEs, %d set-ups, %d calibration units; host slowdown %.3f; as timed: setup_s %.4f, search_p50_ms %.4f",
		len(t.searchLat), len(t.putLat), len(t.deleteLat), len(t.setups), len(windowUnits),
		t.slowdown, quantile(t.rawSetups, 0.5), quantile(t.searchLat, 0.5))
	return t, nil
}

func sameAnswer(a, b *answer) bool {
	return slices.Equal(a.Tables, b.Tables) && a.Pool == b.Pool &&
		slices.EqualFunc(a.Tuples.Rows, b.Tuples.Rows, func(x, y []string) bool { return slices.Equal(x, y) }) &&
		slices.Equal(a.Provenance, b.Provenance)
}

// endToEnd is what a client of the server sees, the timings at the host's
// quiet speed (see calib.go).
func (t *traffic) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":          {quantile(t.setups, 0.5), "s"},
		"search_p50_ms":    {quantile(t.searchLat, 0.5) / t.slowdown, "ms"},
		"cpu_ms_per_op":    {ms(t.cpu) / float64(t.attempted) / t.slowdown, "ms"},
		"peak_rss_mb":      {t.rssMB, "MB"},
		"search_slo_share": {share(t.withinSLO, t.searches), "share"},
		"avg_diversity":    {t.avgDiversity, "score"},
		"novel_share":      {share(t.novel, t.tuples), "share"},
	}
}

// checkReference compares the first-round answers of the given pool
// positions with an in-process pipeline over the same generated lake. It
// applies where the server runs the exact plan on an unchanging lake.
func checkReference(p *dust.Pipeline, in *inputs, pool []int, t *traffic, positions []int) error {
	for _, pos := range positions {
		q := &in.queries[pool[pos]]
		want, err := p.Search(q.table(), topK)
		if err != nil {
			return fmt.Errorf("query %d: served 200, in-process: %v", q.index, err)
		}
		if err := sameResult(t.settled[pos], want); err != nil {
			return fmt.Errorf("query %d: %v", q.index, err)
		}
	}
	return nil
}
