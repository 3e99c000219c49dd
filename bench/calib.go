package main

import (
	"slices"
	"sync/atomic"
	"time"
)

// The benchmark's hosts are shared: for minutes at a time the same request
// takes a third longer because a neighbour keeps the core busy, and no run
// is long enough to average that out. So beside the server the benchmark
// times a fixed unit of work of its own, in the moments the server is idle.
// The unit's fastest time in a run is the host's speed when quiet; its mean
// time over a phase, divided by that, is how much the host slowed that
// phase down. Every time the benchmark reports is divided by the slowdown of
// the phase it was measured in, that is, it is a time at the host's quiet
// speed, which is what makes two runs comparable. The end-to-end values as
// timed are printed beside them, the traced run reports the window's
// slowdown as host.slowdown, and the spans in the trace file are as timed.

var calibBuf [1 << 13]float64

// calibSink keeps the compiler from dropping the unit's arithmetic.
var calibSink float64

// calibUnit runs the fixed unit of work — about 0.15 ms of floating-point
// passes over 64 KB — and returns how long it took, in ms.
func calibUnit() float64 {
	start := time.Now()
	s := 0.0
	for r := 0; r < 16; r++ {
		for i := range calibBuf {
			calibBuf[i] = calibBuf[i]*0.5 + float64(i^r)
			s += calibBuf[i]
		}
	}
	calibSink += s
	return ms(time.Since(start))
}

// probe runs n units and returns their times.
func probe(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = calibUnit()
	}
	return out
}

// slowdown is the mean of units over the quiet-host unit time.
func slowdown(units []float64, quiet float64) float64 {
	if len(units) == 0 {
		return 1
	}
	sum := 0.0
	for _, u := range units {
		sum += u
	}
	return sum / float64(len(units)) / quiet
}

// idleProber times units in the background while no request is in flight,
// for the open loop, whose senders cannot stop to do it.
type idleProber struct {
	inflight atomic.Int32
	stop     chan struct{}
	units    chan []float64
}

func startIdleProber() *idleProber {
	p := &idleProber{stop: make(chan struct{}), units: make(chan []float64, 1)}
	go func() {
		var units []float64
		for {
			select {
			case <-p.stop:
				p.units <- units
				return
			case <-time.After(5 * time.Millisecond):
			}
			if p.inflight.Load() != 0 {
				continue
			}
			// A request that arrived meanwhile shared the host with the
			// units; they would measure the server, not the neighbours.
			if u := probe(3); p.inflight.Load() == 0 {
				units = append(units, u...)
			}
		}
	}()
	return p
}

// finish stops the prober, waits for it, and returns the units it timed.
func (p *idleProber) finish() []float64 {
	close(p.stop)
	return <-p.units
}

// quietUnit is the fastest unit of a run.
func quietUnit(rounds []round) float64 {
	var all []float64
	for _, rd := range rounds {
		all = append(append(append(all, rd.setupUnits...), rd.settleUnits...), rd.windowUnits...)
	}
	return slices.Min(all)
}
