package main

import (
	"math"
	"time"

	"witrack/internal/core"
	"witrack/internal/motion"
)

// schedule is an open-loop frame clock: frame i is due at start +
// i·interval/speed, regardless of how the system keeps up. speed is the
// multiple of real time (1 = the radio's own frame rate).
type schedule struct {
	start    time.Time
	interval float64 // seconds of signal per frame
	speed    float64
}

// due returns frame i's due time.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) * s.interval / s.speed * float64(time.Second)))
}

// waitFor sleeps until frame i is due and returns how late the wake-up
// was (never negative).
func (s schedule) waitFor(i int) time.Duration {
	d := s.due(i)
	if w := time.Until(d); w > 0 {
		time.Sleep(w)
	}
	return time.Since(d)
}

// frameIndex recovers a frame's index from its frame time (frame times
// are index × interval on every source).
func frameIndex(t, interval float64) int { return int(math.Round(t / interval)) }

// sendPlan turns each frame's decodable byte offset (the prefix of the
// trace a reader needs before that frame decodes) into how much of the
// trace the generator has sent by each frame's due time. The trace's
// compressed stream decodes in chunks, so several consecutive frames can
// share one offset; sending that prefix at the first one's due time
// would hand the daemon its successors before they are due. Those bytes
// wait instead until the last frame they complete is due, so no frame
// reaches the daemon early and a frame's lag includes the time its
// chunk waits for later frames.
func sendPlan(offsets []int) []int {
	plan := make([]int, len(offsets))
	sent := 0
	for i, off := range offsets {
		if i+1 == len(offsets) || offsets[i+1] != off {
			sent = off
		}
		plan[i] = sent
	}
	return plan
}

// rebaseLagMS converts a daemon lag sample onto the generator's
// schedule. The daemon measures lag as (emit − session start) − T,
// assuming the frame at trace time T arrived at session start + T (real
// time). The generator sends that frame at session start + T/speed, so
// its fix lag is daemonLag + T·(1 − 1/speed). The session start is when
// the daemon read the hello, which the generator sends at its schedule
// origin; the loopback hand-off between the two is not subtracted.
func rebaseLagMS(daemonLagMS, t, speed float64) float64 {
	return daemonLagMS + t*1e3*(1-1/speed)
}

// pacedTrajectory releases a simulated trajectory on the schedule: the
// simulator source asks for the body state of frame i exactly once, at
// the start of producing that frame, so blocking there until the frame
// is due makes the simulated radio an open-loop source.
type pacedTrajectory struct {
	motion.Trajectory
	sched schedule
	late  *[]float64 // generator lateness per frame, ms
}

func (p pacedTrajectory) At(t float64) motion.BodyState {
	late := p.sched.waitFor(frameIndex(t, p.sched.interval))
	*p.late = append(*p.late, float64(late)/1e6)
	return p.Trajectory.At(t)
}

// pacedSource releases a frame source's batches on the schedule: frame
// i is read (decoded) only once it is due.
type pacedSource struct {
	core.FrameSource
	sched schedule
	next  int
	late  []float64 // generator lateness per frame, ms
}

func (p *pacedSource) Next() *core.FrameBatch {
	late := p.sched.waitFor(p.next)
	p.late = append(p.late, float64(late)/1e6)
	p.next++
	return p.FrameSource.Next()
}

// timedSource measures a frame source from inside the real pipeline:
// busy is the time spent inside Next, blocked the time between one Next
// returning and the next being called — the source waiting for the
// downstream stages to take its frame.
type timedSource struct {
	core.FrameSource
	busy, blocked time.Duration
	lastReturn    time.Time
}

func (s *timedSource) Next() *core.FrameBatch {
	start := time.Now()
	if !s.lastReturn.IsZero() {
		s.blocked += start.Sub(s.lastReturn)
	}
	b := s.FrameSource.Next()
	s.lastReturn = time.Now()
	s.busy += s.lastReturn.Sub(start)
	return b
}
