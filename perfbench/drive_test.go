package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a send takes
// time, so a test controls both the schedule and the service times.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, t)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

func TestFixedRate(t *testing.T) {
	due := fixedRate(4, 200)
	for i, want := range []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond} {
		if due[i] != want {
			t.Errorf("due[%d] = %v, want %v", i, due[i], want)
		}
	}
}

// With one worker, sends due every 10ms and a 25ms stall on the second
// send, the generator falls behind: later operations are sent late,
// and their latency is charged from when they were due.
func TestOpenLoopLatencyFromSchedule(t *testing.T) {
	clk := &fakeClock{}
	service := []time.Duration{time.Millisecond, 25 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	p := plan{
		open:       true,
		due:        fixedRate(len(service), 100),
		lanes:      []*lane{indexLane(len(service))},
		workerLane: []int{0},
		stop:       time.Hour,
		traceFrom:  30 * time.Millisecond,
	}
	samples := drive(clk, p, len(service), func(w, op int, traced bool) error {
		clk.advance(service[op])
		return nil
	})
	ms := time.Millisecond
	want := []struct{ start, late, latency time.Duration }{
		{0, 0, 1 * ms},
		{10 * ms, 0, 25 * ms},
		{35 * ms, 15 * ms, 16 * ms}, // due 20ms, sent when the stall ended
		{36 * ms, 6 * ms, 7 * ms},   // due 30ms
		{40 * ms, 0, 1 * ms},        // back on schedule
	}
	for i, w := range want {
		s := samples[i]
		if !s.sent || s.start != w.start || s.late() != w.late || s.latency() != w.latency {
			t.Errorf("op %d: start %v late %v latency %v, want %v %v %v", i, s.start, s.late(), s.latency(), w.start, w.late, w.latency)
		}
		if s.traced != (s.due >= p.traceFrom) {
			t.Errorf("op %d: traced=%v with due %v", i, s.traced, s.due)
		}
	}
}

// A closed loop times from the actual send and stops at the deadline.
func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{}
	p := plan{lanes: []*lane{indexLane(100)}, workerLane: []int{0}, stop: 50 * time.Millisecond, traceFrom: 1 << 62}
	samples := drive(clk, p, 100, func(w, op int, traced bool) error {
		clk.advance(10 * time.Millisecond)
		return nil
	})
	sent := 0
	for _, s := range samples {
		if s.sent {
			sent++
			if s.latency() != 10*time.Millisecond || s.late() != 0 {
				t.Errorf("closed-loop sample %+v", s)
			}
		}
	}
	if sent != 5 {
		t.Errorf("sent %d operations before the 50ms deadline, want 5", sent)
	}
}

// Past the stop time a backlogged open loop sends nothing more.
func TestOpenLoopBacklogStops(t *testing.T) {
	clk := &fakeClock{}
	p := plan{open: true, due: fixedRate(10, 1000), lanes: []*lane{indexLane(10)}, workerLane: []int{0},
		stop: 20 * time.Millisecond, traceFrom: 1 << 62}
	samples := drive(clk, p, 10, func(w, op int, traced bool) error {
		clk.advance(8 * time.Millisecond)
		return nil
	})
	for i, s := range samples {
		if s.sent != (i < 3) {
			t.Errorf("op %d sent=%v (start %v)", i, s.sent, s.start)
		}
	}
}
