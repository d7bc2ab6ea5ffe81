// Package core wires the full WiTrack system together: the RF scene and
// body models synthesize per-antenna FMCW frames; one track.Tracker per
// receive antenna estimates round-trip distances; the locator intersects
// the resulting ellipsoids into a 3D trajectory (paper §3 overview).
package core

import (
	"context"
	"math"
	"math/rand"
	"time"

	"witrack/internal/body"
	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/rf"
	"witrack/internal/track"
)

// Config assembles a simulated WiTrack deployment.
type Config struct {
	Radio   fmcw.Config
	Array   geom.Array
	Scene   *rf.Scene
	Subject body.Subject
	// Seed drives all simulation randomness (noise, body-surface jitter).
	Seed int64
	// SlowSynth switches frame generation to the full time-domain path
	// (identical statistics, ~100x slower; used for validation runs).
	SlowSynth bool
	// Precision selects the arithmetic width of the time-domain sweep
	// processing (the SlowSynth windowed-FFT hot loop). The default,
	// dsp.Float64, is bit-for-bit pinned by the golden digests;
	// dsp.Float32 halves the memory bandwidth of that loop and keeps
	// every spectrum bin within dsp.Plan32.ErrorBound of the float64
	// result. The fast spectral-synthesis path is float64 either way.
	Precision dsp.Precision
	// TrackerOverride, when non-nil, customizes the per-antenna tracker
	// configuration after defaults are applied.
	TrackerOverride func(*track.Config)
}

// DefaultConfig returns a through-wall deployment with the paper's
// radio parameters, a 1 m T array, and a median subject.
func DefaultConfig() Config {
	return Config{
		Radio:   fmcw.Default(),
		Array:   geom.NewTArray(1.0, 1.5),
		Scene:   rf.StandardScene(true),
		Subject: body.DefaultSubject(),
		Seed:    1,
	}
}

// Sample is one 3D location output.
type Sample struct {
	// T is the time of the frame in seconds from the start of the run.
	T float64
	// Pos is the estimated 3D position (body surface point; apply
	// body.CompensateSurfaceDepth to compare against body centers).
	Pos geom.Vec3
	// Valid is false before first acquisition.
	Valid bool
	// Moving reports whether this frame carried fresh motion energy on
	// at least two antennas (false = interpolated/held output).
	Moving bool
	// Degraded reports that the fix was solved on a reduced antenna
	// subset because one or more antennas were unhealthy (dark, NaN-
	// poisoned) — still a real 3D fix, but with worse dilution of
	// precision. Never set while every antenna delivers healthy frames.
	Degraded bool
	// Truth is the simulated ground-truth body center at T (the VICON
	// substitute; empty when tracking real hardware).
	Truth geom.Vec3
	// TruthMoving is the ground-truth motion flag.
	TruthMoving bool
}

// RunResult carries the full output of a tracking run.
type RunResult struct {
	Samples []Sample
	// PerAntenna holds the per-frame estimate of each receive antenna
	// (round-trip distances), for diagnostics and the pointing pipeline.
	PerAntenna [][]track.Estimate
	// Spectrograms, when recording was enabled, holds the per-antenna
	// magnitude spectrograms (raw) for figure generation.
	Spectrograms []*dsp.Spectrogram
	// ProcessingTime is the total CPU time spent in the signal-processing
	// pipeline (tracking + localization), excluding synthesis — the
	// quantity the paper's §7 75 ms latency budget constrains.
	ProcessingTime time.Duration
	// Frames is the number of frames processed.
	Frames int
}

// Device is a simulated WiTrack unit tracking one person. A device runs
// one trajectory at a time: Run and Stream drive the same staged
// pipeline over the device's trackers and RNG and must not be called
// concurrently on one device.
type Device struct {
	Pipeline
	trackers []*track.Tracker

	// RecordSpectrograms retains raw magnitude frames (memory heavy;
	// used for Fig. 3/Fig. 5 generation).
	RecordSpectrograms bool

	// sim holds the subject's radar-reflection state (torso patch
	// wander, gait parts, gesture arm).
	sim *bodySim
}

// Arm scatterer slide parameters: the dominant reflection point sits a
// mean of ~15 cm up the forearm and wanders with ~10 cm spread over
// ~0.6 s correlation time.
const (
	armSlideMean = 0.15
	armSlideStd  = 0.10
	armSlideTau  = 0.6
	armLatStd    = 0.09
)

// ouUpdate advances a scalar Ornstein-Uhlenbeck process with the given
// mean, stationary std, and correlation time.
func ouUpdate(x, mean, std, tau, dt float64, rng *rand.Rand) float64 {
	a := math.Exp(-dt / tau)
	return mean + a*(x-mean) + math.Sqrt(1-a*a)*std*rng.NormFloat64()
}

// gaitHz is the stride rate driving trailing body-part depth.
const gaitHz = 1.3

// perAntennaWanderScale is the fraction of the torso-patch wander that
// is independent per receive antenna. The independent component is what
// the ellipsoid intersection amplifies along x and z (dilution of
// precision), reproducing the paper's error anisotropy.
const perAntennaWanderScale = 0.18

// perAntennaWanderTau is the correlation time of the per-antenna speckle
// component. It is much shorter than the gait cycle, so long-window
// smoothing (the fall detector, the hold interpolator) can average it
// away — matching the paper's clean Fig. 6 elevation traces despite the
// ~21 cm per-frame z error.
const perAntennaWanderTau = 0.12

// NewDevice validates the configuration and builds the device.
func NewDevice(cfg Config) (*Device, error) {
	c, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	d := &Device{Pipeline: c}
	d.sim = newBodySim(cfg.Subject, len(cfg.Array.Rx), d.rng)
	tc := d.trackerConfig()
	for range cfg.Array.Rx {
		d.trackers = append(d.trackers, track.New(tc))
	}
	return d, nil
}

// Synthesizer exposes the radio synthesizer (for calibration in tests).
func (d *Device) Synthesizer() *fmcw.Synthesizer { return d.synth }

// reflector is one moving scatterer for the current frame.
type reflector struct {
	pt  geom.Vec3
	rcs float64
}

// reflectors returns the moving scatterers per receive antenna for the
// current body state: the torso patch (whole-body wander common to all
// antennas plus a per-antenna decorrelated component, re-advanced only
// while the body translates — a motionless torso produces frame-to-frame
// identical paths so background subtraction erases it, §4.2/§10), the
// gait-swinging trailing parts, and, during gestures, the arm scatterer
// with its much smaller RCS (§6.1).
func (d *Device) reflectors(st motion.BodyState) [][]reflector {
	return d.sim.reflectors(st, d.cfg.Array.Tx, len(d.cfg.Array.Rx), d.cfg.Radio.FrameInterval())
}

// antEstimate is one antenna's per-frame tracker output.
type antEstimate struct {
	est track.Estimate
	mag dsp.Frame // only set when recording spectrograms
}

// stream runs the pipeline over src with the single-person tracker
// stage — a track.Tracker per antenna and a SolveMasked fuse that
// solves on the healthy antennas, flagging a fix from fewer than all
// of them Degraded — and calls emit with each fused sample in frame
// order, together with the frame's per-antenna estimates and (when
// recording) magnitude frames. emit must not retain the slices. It
// returns the accumulated signal-processing CPU time (tracking +
// localization, across all workers) — the paper's §7 budget quantity.
func (d *Device) stream(ctx context.Context, src FrameSource,
	emit func(s Sample, ests []track.Estimate, mags []dsp.Frame) bool) time.Duration {
	nRx := len(d.cfg.Array.Rx)
	procNS := make([]int64, nRx)
	var locateNS int64

	step := func(k int, frame dsp.ComplexFrame, healthy bool) antEstimate {
		start := time.Now()
		var r antEstimate
		if healthy {
			r.est = d.trackers[k].Push(frame)
		} else {
			r.est = d.trackers[k].Coast()
		}
		procNS[k] += time.Since(start).Nanoseconds()
		if d.RecordSpectrograms {
			r.mag = frame.Mag()
		}
		return r
	}

	ests := make([]track.Estimate, nRx)
	mags := make([]dsp.Frame, nRx)
	fuse := func(b *FrameBatch, outs []antEstimate, solvable []bool) bool {
		movingCount := 0
		for k, r := range outs {
			ests[k] = r.est
			mags[k] = r.mag
			if r.est.Moving {
				movingCount++
			}
		}
		sample := Sample{T: b.T}
		if len(b.States) > 0 {
			sample.Truth = b.States[0].Center
			sample.TruthMoving = b.States[0].Moving
		}
		start := time.Now()
		if pos, used, err := d.locator.SolveMasked(ests, solvable); err == nil {
			sample.Pos = pos
			sample.Valid = true
			sample.Moving = movingCount >= 2
			sample.Degraded = used < nRx
		}
		locateNS += time.Since(start).Nanoseconds()
		return emit(sample, ests, mags)
	}

	stream(&d.Pipeline, ctx, src, step, fuse)
	total := locateNS
	for _, ns := range procNS {
		total += ns
	}
	return time.Duration(total)
}

// trajSource is the simulator source for one trajectory of the
// device's subject.
func (d *Device) trajSource(traj motion.Trajectory) *simSource {
	return d.simSource([]*bodySim{d.sim}, []motion.Trajectory{traj})
}

// streamTo launches the pipeline over src in a goroutine and returns
// the channel its samples are delivered on, closed at end of stream or
// cancellation.
func (d *Device) streamTo(ctx context.Context, src FrameSource) <-chan Sample {
	return streamTo(ctx, func(emit func(Sample) bool) {
		d.stream(ctx, src, func(s Sample, _ []track.Estimate, _ []dsp.Frame) bool { return emit(s) })
	})
}

// Stream tracks the trajectory and delivers location samples as they
// are produced, in frame order, on the returned channel — the primary
// API. The channel is closed when the trajectory ends or ctx is
// cancelled. For a fixed seed the sample sequence is bit-identical to
// Run's: the simulation RNG is consumed in serial frame order by the
// source stage; only deterministic processing fans out.
func (d *Device) Stream(ctx context.Context, traj motion.Trajectory) <-chan Sample {
	return d.streamTo(ctx, d.trajSource(traj))
}

// StreamFrom runs the pipeline over an arbitrary frame source (a
// recorded trace, a hardware front end) instead of the built-in
// simulator. It returns an error if the source's antenna count does
// not match the device's array.
func (d *Device) StreamFrom(ctx context.Context, src FrameSource) (<-chan Sample, error) {
	if err := d.checkSource(src); err != nil {
		return nil, err
	}
	return d.streamTo(ctx, src), nil
}

// Run simulates tracking the trajectory for its full duration and
// returns the location samples plus diagnostics. It is Stream's
// pipeline run to completion with all diagnostics collected.
func (d *Device) Run(traj motion.Trajectory) *RunResult {
	nRx := len(d.cfg.Array.Rx)
	src := d.trajSource(traj)
	// The source knows the run length up front; pre-sizing the result
	// slices keeps append-growth reallocations out of the streaming loop.
	nFrames := src.Frames()
	res := &RunResult{
		Samples:    make([]Sample, 0, nFrames),
		PerAntenna: make([][]track.Estimate, nRx),
	}
	for k := range res.PerAntenna {
		res.PerAntenna[k] = make([]track.Estimate, 0, nFrames)
	}
	if d.RecordSpectrograms {
		res.Spectrograms = make([]*dsp.Spectrogram, nRx)
		for k := range res.Spectrograms {
			res.Spectrograms[k] = &dsp.Spectrogram{
				BinDistance:   d.cfg.Radio.BinDistance(),
				FrameInterval: d.cfg.Radio.FrameInterval(),
				Frames:        make([]dsp.Frame, 0, nFrames),
			}
		}
	}
	res.ProcessingTime = d.stream(context.Background(), src,
		func(s Sample, ests []track.Estimate, mags []dsp.Frame) bool {
			for k := 0; k < nRx; k++ {
				res.PerAntenna[k] = append(res.PerAntenna[k], ests[k])
			}
			res.Samples = append(res.Samples, s)
			res.Frames++
			if d.RecordSpectrograms {
				for k := 0; k < nRx; k++ {
					res.Spectrograms[k].Frames = append(res.Spectrograms[k].Frames, mags[k])
				}
			}
			return true
		})
	return res
}

// CalibrateBackground implements the paper's §10 proposal for locating a
// static user: record the empty room for the given number of frames and
// install the averaged complex profile as each tracker's background.
// Subsequent runs subtract this profile instead of the previous frame,
// so even a motionless person stands out (her reflection is absent from
// the calibration).
func (d *Device) CalibrateBackground(frames int) {
	nRx := len(d.cfg.Array.Rx)
	for k := 0; k < nRx; k++ {
		var recorded []dsp.ComplexFrame
		for i := 0; i < frames; i++ {
			paths := d.prop.StaticPaths(k)
			if d.cfg.SlowSynth {
				recorded = append(recorded, d.synth.SynthesizeComplexFrameSlow(paths, d.rng))
			} else {
				recorded = append(recorded, d.synth.SynthesizeComplexFrame(paths, d.rng))
			}
		}
		d.trackers[k].SetBackground(track.AverageBackground(recorded))
	}
}

// ClearBackground returns the device to consecutive-frame subtraction.
func (d *Device) ClearBackground() {
	for _, tr := range d.trackers {
		tr.SetBackground(nil)
	}
}

// Reset clears tracker state so the device can run a fresh trajectory.
func (d *Device) Reset() {
	for _, tr := range d.trackers {
		tr.Reset()
	}
	d.sim.reset()
}
