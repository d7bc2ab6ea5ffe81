package core

import (
	"context"
	"fmt"

	"witrack/internal/body"
	"witrack/internal/dsp"
	"witrack/internal/geom"
	"witrack/internal/locate"
	"witrack/internal/motion"
	"witrack/internal/trace"
	"witrack/internal/track"
)

// MultiDevice tracks k concurrent movers — the paper's §10 extension
// generalized: per-antenna k-TOF extraction, assignment disambiguation
// across the (k!)^nRx candidate-to-target bijections (locate.SolveK),
// and trajectory-continuity scoring. It is built on the same pipeline
// core as Device; only the tracker stage differs: a k-target tracker
// per antenna and the joint assignment search as the fusion step.
type MultiDevice struct {
	Pipeline
	subjects []body.Subject
	trackers []*track.MultiTracker
	sims     []*bodySim
}

// MultiSample is one k-person output frame. Pos and Truth are in
// subject order and freshly allocated per sample (safe to retain).
type MultiSample struct {
	T     float64
	Pos   []geom.Vec3
	Valid bool
	// Degraded marks a joint fix solved on a reduced antenna subset:
	// an antenna was dark (see Sample.Degraded) or its tracker had not
	// yet acquired all k targets. Only arrays with more than three
	// antennas have a subset left to solve on.
	Degraded bool
	Truth    []geom.Vec3
}

// MultiRunResult is the output of a k-person run.
type MultiRunResult struct {
	Samples []MultiSample
	Frames  int
}

// NewMultiDevice builds a k-person tracker: cfg.Subject is subject 0,
// the variadic others are subjects 1..k-1. The two-person §10
// configuration is NewMultiDevice(cfg, subjectB); with no extra
// subjects the device degenerates to a single-target tracker on the
// multi-target pipeline.
func NewMultiDevice(cfg Config, others ...body.Subject) (*MultiDevice, error) {
	c, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	d := &MultiDevice{
		Pipeline: c,
		subjects: append([]body.Subject{cfg.Subject}, others...),
	}
	nRx := len(cfg.Array.Rx)
	// Discarded on purpose: this is the draw a single-person device
	// makes for subject 0, and the k-person golden digests pin the RNG
	// sequence that follows it.
	newBodySim(cfg.Subject, nRx, d.rng)
	tc := d.trackerConfig()
	for range cfg.Array.Rx {
		d.trackers = append(d.trackers, track.NewMulti(tc, len(d.subjects)))
	}
	for _, sub := range d.subjects {
		d.sims = append(d.sims, newBodySim(sub, nRx, d.rng))
	}
	return d, nil
}

// NumSubjects returns k, the concurrent-target count.
func (d *MultiDevice) NumSubjects() int { return len(d.subjects) }

// stream runs the pipeline over src with the k-person tracker stage —
// a track.MultiTracker per antenna and a SolveK fuse — and calls emit
// with each fused k-person sample in frame order. The association of
// output slots to people is carried frame to frame by SolveK's
// continuity term (the radio cannot know identities; the paper's §10
// notes only trajectory consistency is available).
func (d *MultiDevice) stream(ctx context.Context, src FrameSource, emit func(s MultiSample) bool) {
	nRx := len(d.cfg.Array.Rx)
	k := len(d.subjects)
	step := func(a int, frame dsp.ComplexFrame, healthy bool) []track.Estimate {
		if healthy {
			return d.trackers[a].Push(frame)
		}
		return d.trackers[a].Coast()
	}

	prev := make([]geom.Vec3, k)
	havePrev := false
	cands := make([][]float64, nRx)
	candBuf := make([]float64, nRx*k)
	for a := range cands {
		cands[a] = candBuf[a*k : (a+1)*k : (a+1)*k]
	}
	// maskedCands compacts the usable antennas' candidate rows for the
	// degraded sub-array assignment search.
	maskedCands := make([][]float64, 0, nRx)
	fuse := func(b *FrameBatch, outs [][]track.Estimate, solvable []bool) bool {
		usable := 0
		var mask uint64
		for a, ests := range outs {
			valid := true
			for c := 0; c < k; c++ {
				if !ests[c].Valid {
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			for c := 0; c < k; c++ {
				cands[a][c] = ests[c].RoundTrip
			}
			if solvable[a] {
				usable++
				mask |= 1 << uint(a)
			}
		}
		sample := MultiSample{T: b.T}
		if len(b.States) > 0 {
			sample.Truth = make([]geom.Vec3, len(b.States))
			for i := range b.States {
				sample.Truth[i] = b.States[i].Center
			}
		}
		switch {
		case usable == nRx:
			if pos, err := locate.SolveK(d.locator, cands, prev, havePrev); err == nil {
				sample.Pos = pos
				sample.Valid = true
				copy(prev, pos)
				havePrev = true
			}
		case usable >= 3:
			// Graceful degradation: the joint assignment search runs on
			// the usable antennas' sub-array. A tracker that merely has
			// not acquired yet (invalid estimate) degrades the fix just
			// like a dark antenna — both starve the solve of a row.
			if sub, err := d.locator.Sub(mask); err == nil {
				maskedCands = maskedCands[:0]
				for a := 0; a < nRx; a++ {
					if mask&(1<<uint(a)) != 0 {
						maskedCands = append(maskedCands, cands[a])
					}
				}
				if pos, err := locate.SolveK(sub, maskedCands, prev, havePrev); err == nil {
					sample.Pos = pos
					sample.Valid = true
					sample.Degraded = true
					copy(prev, pos)
					havePrev = true
				}
			}
		}
		return emit(sample)
	}

	stream(&d.Pipeline, ctx, src, step, fuse)
}

// trajSource is the simulator source for one trajectory per subject,
// in subject order.
func (d *MultiDevice) trajSource(trajs []motion.Trajectory) (*simSource, error) {
	if len(trajs) != len(d.subjects) {
		return nil, fmt.Errorf("core: %d trajectories for %d subjects", len(trajs), len(d.subjects))
	}
	return d.simSource(d.sims, trajs), nil
}

// Run tracks one trajectory per subject simultaneously for the
// shortest trajectory's duration and returns all samples. It panics if
// the trajectory count does not match the subject count (a programming
// error, like a misconfigured tracker).
func (d *MultiDevice) Run(trajs ...motion.Trajectory) *MultiRunResult {
	src, err := d.trajSource(trajs)
	if err != nil {
		panic(err)
	}
	res := &MultiRunResult{Samples: make([]MultiSample, 0, src.Frames())}
	d.stream(context.Background(), src, func(s MultiSample) bool {
		res.Samples = append(res.Samples, s)
		res.Frames++
		return true
	})
	return res
}

// streamTo launches the pipeline over src in a goroutine and returns
// the delivery channel, closed at end of stream or cancellation.
func (d *MultiDevice) streamTo(ctx context.Context, src FrameSource) <-chan MultiSample {
	return streamTo(ctx, func(emit func(MultiSample) bool) { d.stream(ctx, src, emit) })
}

// Stream tracks one trajectory per subject and delivers k-person
// samples as they are produced, in frame order — the streaming
// counterpart of Run (bit-identical samples for a fixed seed). The
// channel closes when the shortest trajectory ends or ctx is
// cancelled.
func (d *MultiDevice) Stream(ctx context.Context, trajs ...motion.Trajectory) (<-chan MultiSample, error) {
	src, err := d.trajSource(trajs)
	if err != nil {
		return nil, err
	}
	return d.streamTo(ctx, src), nil
}

// StreamFrom runs the k-person pipeline over an arbitrary frame source
// (a recorded multi-person trace, a hardware front end) instead of the
// built-in simulator.
func (d *MultiDevice) StreamFrom(ctx context.Context, src FrameSource) (<-chan MultiSample, error) {
	if err := d.checkSource(src); err != nil {
		return nil, err
	}
	return d.streamTo(ctx, src), nil
}

// RecordTo simulates one trajectory per subject and streams every frame
// (plus all k ground-truth states) into tw in the form tw's header
// picks — per-antenna complex frames, raw sweeps or quantized ADC codes
// (see Device.RecordTo) — holding one frame in memory at a time. The
// caller closes tw. Replaying the trace through StreamFrom on a fresh
// identically-configured MultiDevice is bit-identical to running the
// trajectories directly.
func (d *MultiDevice) RecordTo(tw *trace.Writer, trajs ...motion.Trajectory) (int, error) {
	src, err := d.trajSource(trajs)
	if err != nil {
		return 0, err
	}
	return d.capture(tw, src)
}

// Reset clears tracker and body-simulation state so the device can run
// a fresh set of trajectories.
func (d *MultiDevice) Reset() {
	for _, tr := range d.trackers {
		tr.Reset()
	}
	for _, s := range d.sims {
		s.reset()
	}
}
