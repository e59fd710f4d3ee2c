package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock abstracts time for the load generator, so its schedule and its
// lateness accounting can be tested without sleeping.
type clock interface {
	// now is the time since the run's origin.
	now() time.Duration
	// sleepUntil blocks until now() ≥ t.
	sleepUntil(t time.Duration)
}

type realClock struct{ origin time.Time }

func (c realClock) now() time.Duration { return time.Since(c.origin) }

// sleepUntil waits in nanosleep(2): the runtime's own timers fire on
// the scheduler's poll timeout, which on a mostly idle process rounds
// sub-millisecond sleeps up to about a millisecond, all of which would
// show up as generator lateness.
func (c realClock) sleepUntil(t time.Duration) {
	for {
		d := t - c.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// sample is one operation as the generator executed it: when it was
// due, when it was actually sent, and when its response was complete.
// In a closed loop an operation is due when it is sent.
type sample struct {
	due, start, end time.Duration
	sent            bool
	traced          bool
	err             error
}

// latency is timed from the scheduled send time, so a stall that
// delays later sends is charged to them (no coordinated omission).
func (s sample) latency() time.Duration { return s.end - s.due }

// late is how far behind schedule the generator sent the operation.
func (s sample) late() time.Duration { return s.start - s.due }

// lane is a queue of operation indices taken in order by the workers
// assigned to it. One worker per lane keeps the lane's send order;
// several workers on one lane share its load.
type lane struct {
	ops  []int
	next atomic.Int64
}

// plan is what the generator runs.
type plan struct {
	// open selects an open loop: each operation is sent at due[op] (or
	// as soon as its worker is free, if that is later). A closed loop
	// sends each worker's next operation when its previous one returns.
	open bool
	due  []time.Duration
	// lanes and workerLane assign work: worker w takes operations from
	// lanes[workerLane[w]]. Each worker owns one connection.
	lanes      []*lane
	workerLane []int
	// stop ends the run: no operation is sent at or after it. In a
	// closed loop it is the measurement deadline; in an open loop it
	// bounds how long a growing backlog may keep the run going.
	stop time.Duration
	// traceFrom starts the traced window: operations due (open loop)
	// or sent (closed loop) at or after it are traced.
	traceFrom time.Duration
}

// drive runs the plan with one goroutine per worker and returns one
// sample per operation (unsent operations have sent=false). send
// executes operation op on worker w's connection.
func drive(clk clock, p plan, nops int, send func(w, op int, traced bool) error) []sample {
	samples := make([]sample, nops)
	var wg sync.WaitGroup
	for w, li := range p.workerLane {
		wg.Add(1)
		go func(w int, l *lane) {
			defer wg.Done()
			for {
				i := int(l.next.Add(1)) - 1
				if i >= len(l.ops) {
					return
				}
				op := l.ops[i]
				if p.open {
					clk.sleepUntil(p.due[op])
				}
				start := clk.now()
				if start >= p.stop {
					return
				}
				due := start
				if p.open {
					due = p.due[op]
				}
				traced := due >= p.traceFrom
				err := send(w, op, traced)
				samples[op] = sample{due: due, start: start, end: clk.now(), sent: true, traced: traced, err: err}
			}
		}(w, p.lanes[li])
	}
	wg.Wait()
	return samples
}

// fixedRate returns n send times at the given rate starting at 0.
func fixedRate(n int, perSecond float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) * float64(time.Second) / perSecond)
	}
	return due
}
