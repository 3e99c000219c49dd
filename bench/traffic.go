package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// sample is one request as the client saw it.
type sample struct {
	kind   opKind
	query  int           // pool position (search)
	start  time.Time     // scheduled send time (open loop) or send time (closed loop)
	lat    time.Duration // start -> last byte of the response
	lag    time.Duration // open loop: how late the generator sent it
	status int
	err    error
	body   []byte
	phase  phase
}

// phase says which part of a round a request belongs to. Only the window
// is measured; the server's books are checked over window and mutations.
type phase int

const (
	phaseSettle phase = iota // first round: choosing the pool, which is also the warm-up
	phaseWindow
	phaseMutate // traced closed loop: PUTs and DELETEs after the window
)

func (s *sample) ok() bool {
	if s.err != nil {
		return false
	}
	if s.kind == opPut {
		return s.status == http.StatusCreated
	}
	return s.status == http.StatusOK
}

// round is one fresh server's part of a run.
type round struct {
	setup   time.Duration
	samples []sample
	cpu     time.Duration // server CPU over the window
	rssMB   float64
	before  serverStats
	after   serverStats
	// Calibration units (see calib.go) timed around the set-up, between the
	// first round's candidates, and between the window's requests.
	setupUnits, settleUnits, windowUnits []float64
}

// run drives the workload's traffic against fresh servers, cfg.rounds times,
// and returns what each round saw. The pool — positions into in.queries — is
// settled in the first round: candidates are sent once each, in index order,
// and the first cfg.pool answered 200 form it, so no measured search fails
// for a reason the inputs already decide. That pass is also the warm-up.
func run(bin string, in *inputs, cfg config, seed int64, spans *tracer) ([]round, []int, error) {
	rng := rand.New(rand.NewSource(seed))
	var pool []int
	var cycle []int // shuffled pool positions the closed loop walks
	next := 0       // cycle position, carried across rounds so every query gets equal turns
	conns := 1
	if in.w.open {
		conns = 2
	}
	perClass := in.w.perClass
	if spans != nil {
		// The traced run's in-process half runs every pool query several
		// times over; half the closed loops' pool keeps it to half a minute.
		perClass = min(perClass, 8)
	}
	rounds := make([]round, cfg.rounds)
	for r := range rounds {
		rd := &rounds[r]
		rd.setupUnits = probe(30)
		srv, err := startServer(bin, in, conns)
		if err != nil {
			return nil, nil, err
		}
		rd.setup = srv.setup
		rd.setupUnits = append(rd.setupUnits, probe(30)...)
		err = func() error {
			defer srv.stop()
			if r == 0 {
				if pool, rd.samples, rd.settleUnits, err = settlePool(srv, in, perClass); err != nil {
					return err
				}
				cycle = rng.Perm(len(pool))
			} else if err := warmUp(srv, in, pool); err != nil {
				return err
			}
			if rd.before, err = srv.stats(); err != nil {
				return err
			}
			cpu0, err := srv.cpu()
			if err != nil {
				return err
			}
			per := cfg.window / time.Duration(cfg.rounds)
			if in.w.open {
				plan := planOpenLoop(rng, cfg.rate, per, len(pool), len(in.puts))
				var got []sample
				got, rd.windowUnits = openLoop(srv, in, pool, plan)
				rd.samples = append(rd.samples, got...)
			} else {
				var got []sample
				got, rd.windowUnits, next = closedLoop(srv, in, pool, cycle, next, per)
				rd.samples = append(rd.samples, got...)
			}
			cpu1, err := srv.cpu()
			if err != nil {
				return err
			}
			rd.cpu = cpu1 - cpu0
			if !in.w.open && spans != nil {
				// Only the traced run reports what a mutation costs on a
				// closed-loop workload's lake.
				rd.samples = append(rd.samples, mutate(srv, in, r*cfg.mutations, cfg.mutations)...)
			}
			if rd.after, err = srv.stats(); err != nil {
				return err
			}
			rd.rssMB, err = srv.peakRSSMB()
			return err
		}()
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w\n%s", r, err, srv.log.String())
		}
		spans.addRound(r, rd.samples)
	}
	return rounds, pool, nil
}

// settlePool sends candidates, in index order, until perClass of every
// width class were answered 200, and returns the pool with those answers,
// in pool order. A 422 means the pipeline found nothing unionable for that
// candidate; it is skipped.
func settlePool(srv *server, in *inputs, perClass int) ([]int, []sample, []float64, error) {
	var pool []int
	var answers []sample
	var units []float64
	var have [widthClasses]int
	for i := range in.queries {
		class := in.queries[i].class
		if have[class] == perClass {
			continue
		}
		units = append(units, probe(10)...)
		s := sample{kind: opSearch, query: len(pool), start: time.Now(), phase: phaseSettle}
		var end time.Time
		s.status, s.body, end, s.err = srv.do(http.MethodPost, "/search", in.queries[i].body)
		s.lat = end.Sub(s.start)
		switch {
		case s.err != nil:
			return nil, nil, nil, s.err
		case s.status == http.StatusOK:
			have[class]++
			pool = append(pool, i)
			answers = append(answers, s)
		case s.status != http.StatusUnprocessableEntity:
			return nil, nil, nil, fmt.Errorf("candidate query %d: status %d: %s", i, s.status, s.body)
		}
	}
	if len(pool) < widthClasses*perClass {
		return nil, nil, nil, fmt.Errorf("of %d candidate queries only %v per width class were answered; the pool needs %d of each",
			len(in.queries), have, perClass)
	}
	return pool, answers, units, nil
}

// warmUp sends a few pool queries so a fresh server's first measured
// request does not pay for page faults and a cold heap.
func warmUp(srv *server, in *inputs, pool []int) error {
	for _, qi := range pool[:min(4, len(pool))] {
		if status, body, _, err := srv.do(http.MethodPost, "/search", in.queries[qi].body); err != nil {
			return err
		} else if status != http.StatusOK {
			return fmt.Errorf("warm-up query %d: status %d: %s", qi, status, body)
		}
	}
	return nil
}

// closedLoop is one client: it sends the next query of the cycle once the
// previous answer has arrived and a few calibration units are timed, for d.
func closedLoop(srv *server, in *inputs, pool, cycle []int, next int, d time.Duration) ([]sample, []float64, int) {
	var out []sample
	var units []float64
	for t0 := time.Now(); time.Since(t0) < d; next++ {
		units = append(units, probe(10)...)
		pos := cycle[next%len(cycle)]
		s := sample{kind: opSearch, query: pos, start: time.Now(), phase: phaseWindow}
		var end time.Time
		s.status, s.body, end, s.err = srv.do(http.MethodPost, "/search", in.queries[pool[pos]].body)
		s.lat = end.Sub(s.start)
		out = append(out, s)
	}
	return out, units, next
}

// mutate adds the n fresh tables from first on and removes them again, one
// request at a time, so the closed-loop workloads price a mutation on their
// lake too.
func mutate(srv *server, in *inputs, first, n int) []sample {
	var out []sample
	for _, kind := range []opKind{opPut, opDelete} {
		for i := first; i < first+n; i++ {
			o := op{kind: kind, name: fmt.Sprintf("bench%d", i), put: i}
			out = append(out, send(srv, in, nil, o, time.Now(), phaseMutate))
		}
	}
	return out
}

// send issues one planned request; its latency counts from scheduled.
func send(srv *server, in *inputs, pool []int, o op, scheduled time.Time, ph phase) sample {
	s := sample{kind: o.kind, query: o.query, start: scheduled, lag: time.Since(scheduled), phase: ph}
	var end time.Time
	switch o.kind {
	case opSearch:
		s.status, s.body, end, s.err = srv.do(http.MethodPost, "/search", in.queries[pool[o.query]].body)
	case opPut:
		s.status, s.body, end, s.err = srv.do(http.MethodPut, "/tables/"+o.name, in.puts[o.put].body)
	case opDelete:
		s.status, s.body, end, s.err = srv.do(http.MethodDelete, "/tables/"+o.name, nil)
	}
	s.lat = end.Sub(scheduled)
	return s
}

// openLoop sends the plan on schedule over two connections: each sender
// takes the next planned request, waits for its time, and sends it whether
// or not earlier ones have been answered. When both are still waiting for
// answers the next request goes out late; its latency still counts from
// its scheduled time, and the lateness is reported as loadgen lag.
func openLoop(srv *server, in *inputs, pool []int, plan []op) ([]sample, []float64) {
	out := make([]sample, len(plan))
	prober := startIdleProber()
	var mu sync.Mutex
	nextOp := 0
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := nextOp
				nextOp++
				mu.Unlock()
				if i >= len(plan) {
					return
				}
				scheduled := t0.Add(plan[i].at)
				time.Sleep(time.Until(scheduled))
				prober.inflight.Add(1)
				out[i] = send(srv, in, pool, plan[i], scheduled, phaseWindow)
				prober.inflight.Add(-1)
			}
		}()
	}
	wg.Wait()
	return out, prober.finish()
}
