package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"witrack/internal/dsp"
	"witrack/internal/fault"
	"witrack/internal/fmcw"
	"witrack/internal/locate"
	"witrack/internal/motion"
	"witrack/internal/rf"
	"witrack/internal/trace"
	"witrack/internal/track"
)

// Pipeline is the pipeline both device types are built on: the radio
// and propagation models, the locator, the simulation RNG and frame
// ring, the robustness state, and the settable pipeline knobs, plus
// the one capture loop and the one health-monitored stream. Device and
// MultiDevice embed it and supply only their tracker stage — a
// per-antenna Push/Coast step and a per-frame fusion. It is exported so
// callers can reach either device's knobs and reports through one
// pointer (&dev.Pipeline); it is only usable embedded in a device.
type Pipeline struct {
	cfg     Config
	synth   *fmcw.Synthesizer
	prop    *rf.Propagator
	locator *locate.Locator
	rng     *rand.Rand
	// ring recycles FrameBatch buffers across the device's runs: one
	// trajectory at a time, so successive Run/Stream calls reuse the
	// frame memory the previous run warmed up.
	ring *batchRing

	// Workers is the number of per-antenna pipeline workers (stage 2).
	// 0 means one per receive antenna — the default and the fastest;
	// 1 degenerates to a fully serial processing stage (useful for
	// measuring the parallel speedup). Values above the antenna count
	// are capped.
	Workers int

	// Pool, when non-nil, is a shared processing-slot pool bounding how
	// much of this device's pipeline computes concurrently with every
	// other device on the same pool — the multi-session daemon's
	// fairness knob. nil (the default) leaves the run unpooled. Output
	// is bit-identical either way (see WorkerPool).
	Pool *WorkerPool

	// Batch, when non-nil, routes this device's frame-level RFFT batch
	// calls (the time-domain sweep path) through a shared cross-session
	// BatchScheduler, so transforms land in combined stage-interleaved
	// calls with every other pipeline on the same scheduler. Output is
	// bit-identical with or without it (see BatchScheduler). nil (the
	// default) keeps transforms private to this device.
	Batch *BatchClient

	// FrameDeadline, when positive, arms a watchdog on every run: a
	// source that takes longer than this to produce a frame ends the run
	// with a descriptive RunError instead of wedging the pipeline
	// forever. Zero (the default) trusts the source.
	FrameDeadline time.Duration

	// faults, when non-nil, is the deterministic injector driving this
	// device's chaos runs; runErr latches why the last run ended early.
	faults *fault.Injector
	runErr error
}

// newPipeline validates the configuration and builds the shared
// pipeline state.
func newPipeline(cfg Config) (Pipeline, error) {
	if err := cfg.Radio.Validate(); err != nil {
		return Pipeline{}, fmt.Errorf("core: %w", err)
	}
	if err := cfg.Array.Validate(); err != nil {
		return Pipeline{}, fmt.Errorf("core: %w", err)
	}
	if cfg.Scene == nil {
		return Pipeline{}, fmt.Errorf("core: nil scene")
	}
	if cfg.Radio.ADCBits > 0 && !cfg.SlowSynth {
		return Pipeline{}, fmt.Errorf("core: ADCBits=%d requires SlowSynth (the fast path synthesizes spectra directly and never digitizes time-domain samples)", cfg.Radio.ADCBits)
	}
	loc, err := locate.New(cfg.Array)
	if err != nil {
		return Pipeline{}, fmt.Errorf("core: %w", err)
	}
	return Pipeline{
		cfg:     cfg,
		synth:   fmcw.NewSynthesizer(cfg.Radio),
		prop:    rf.NewPropagator(cfg.Scene, cfg.Array, cfg.Radio),
		locator: loc,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		ring:    newBatchRing(ringCapacity),
	}, nil
}

// trackerConfig returns the per-antenna tracker configuration: the
// defaults for the radio, then the config's TrackerOverride.
func (c *Pipeline) trackerConfig() track.Config {
	tc := track.DefaultConfig(c.cfg.Radio.BinDistance(), c.cfg.Radio.FrameInterval(), c.synth.NoiseBinSigma())
	if c.cfg.TrackerOverride != nil {
		c.cfg.TrackerOverride(&tc)
	}
	return tc
}

// Config returns the device configuration.
func (c *Pipeline) Config() Config { return c.cfg }

// TraceHeader returns the .wtrace header describing this device's
// deployment: the sweep parameters, antenna geometry, seed, and frame
// clock a replaying device needs to reproduce the recording conditions.
// A k-person capture has the same header; the subject count is carried
// by the per-frame truth records (and, for scenario captures, the
// embedded spec provenance).
func (c *Pipeline) TraceHeader() trace.Header {
	return trace.Header{
		Seed:     c.cfg.Seed,
		Interval: c.cfg.Radio.FrameInterval(),
		NumRx:    len(c.cfg.Array.Rx),
		Bins:     c.cfg.Radio.RangeBins(),
		Radio:    c.cfg.Radio,
		Array:    c.cfg.Array,
	}
}

// antennaScratch is one pipeline worker's per-antenna reusable buffers:
// the path list, the spectrum frame, and the time-domain sweep scratch
// (created on first use; it references the shared immutable FFT plan but
// its buffers belong to this antenna alone). Each antenna is processed
// by exactly one goroutine, so the buffers need no synchronization.
type antennaScratch struct {
	paths []fmcw.Path
	spec  dsp.ComplexFrame
	sweep *fmcw.SweepScratch
	prec  dsp.Precision
	// batch, when non-nil, is installed on the sweep scratch so this
	// antenna's frame transforms coalesce with other pipelines'.
	batch *BatchClient

	// Fault-injection and health-monitoring state: faultBuf is the
	// corruption scratch copy, last/haveLast the stale-frame history
	// for Stuck windows (used only with an injector installed),
	// badStreak the consecutive-unhealthy count behind the dark
	// escalation (kept on every run).
	faultBuf  dsp.ComplexFrame
	last      dsp.ComplexFrame
	haveLast  bool
	badStreak int
}

// newScratch returns one run's per-antenna scratch, set up for the
// device's sweep precision and cross-session batching.
func (c *Pipeline) newScratch() []antennaScratch {
	scratch := make([]antennaScratch, len(c.cfg.Array.Rx))
	for k := range scratch {
		scratch[k].prec = c.cfg.Precision
		scratch[k].batch = c.Batch
	}
	return scratch
}

// materialize returns antenna k's complex frame for batch b: the eager
// frame if the source provided one, otherwise the deferred deterministic
// work — either the fast path's spectral synthesis (static paths, then
// each target's paths in order, then the pre-drawn noise) or the slow
// path's window + real-input FFT + coherent averaging of raw sweeps —
// reusing the worker's scratch. The operation order matches the fused
// serial synthesis exactly, so the result is bit-identical to what the
// serial loop produced.
func (w *antennaScratch) materialize(synth *fmcw.Synthesizer, prop *rf.Propagator, k int, b *FrameBatch) dsp.ComplexFrame {
	switch {
	case b.sweeps16 != nil:
		// Quantized sweeps take precedence over the float64 synthesis
		// scratch: the codes are what the modeled ADC output, and routing
		// them through the fused dequantize+window kernels keeps live,
		// recorded, and replayed runs bit-identical.
		w.spec = synth.ComplexFrameFromSweepsInt16Into(w.spec, b.sweeps16[k], b.scale16, w.sweepScratch(synth))
		return w.spec
	case b.sweeps != nil:
		w.spec = synth.ComplexFrameFromSweepsInto(w.spec, b.sweeps[k], w.sweepScratch(synth))
		return w.spec
	case b.synth != nil:
		j := &b.synth[k]
		w.paths = append(w.paths[:0], prop.StaticPaths(k)...)
		for _, r := range j.targets {
			w.paths = prop.AppendTargetPaths(w.paths, k, r.pt, r.rcs)
		}
		w.spec = synth.PathSpectrum(w.paths, w.spec)
		fmcw.AddNoise(w.spec, j.noise)
		return w.spec
	default:
		return b.Frames[k]
	}
}

// sweepScratch returns the antenna's time-domain sweep scratch,
// creating it on first use.
func (w *antennaScratch) sweepScratch(synth *fmcw.Synthesizer) *fmcw.SweepScratch {
	if w.sweep == nil {
		w.sweep = synth.NewSweepScratchPrecision(w.prec)
		if w.batch != nil {
			w.sweep.SetBatcher(w.batch)
		}
	}
	return w.sweep
}

// simSource wraps the device's simulator as the pipeline's stage-1
// source for the given bodies and trajectories (in subject order).
func (c *Pipeline) simSource(sims []*bodySim, trajs []motion.Trajectory) *simSource {
	return newSimSource(c.synth, c.prop, c.rng, sims, trajs,
		c.cfg.Array.Tx, len(c.cfg.Array.Rx), c.cfg.Radio.FrameInterval(), c.cfg.SlowSynth, c.ring)
}

// checkSource rejects a frame source whose antenna count does not
// match the device's array.
func (c *Pipeline) checkSource(src FrameSource) error {
	if got, want := src.NumRx(), len(c.cfg.Array.Rx); got != want {
		return fmt.Errorf("core: source has %d antennas, device array has %d", got, want)
	}
	return nil
}

// forEachBatch pulls src's batches in frame order, hands each to fn, and
// recycles it. It stops at the end of the stream or at fn's first
// error, and returns how many batches fn accepted.
func forEachBatch(src FrameSource, fn func(b *FrameBatch) error) (int, error) {
	for n := 0; ; n++ {
		b := src.Next()
		if b == nil {
			return n, nil
		}
		if err := fn(b); err != nil {
			return n, err
		}
		src.Recycle(b)
	}
}

// capture drains src into tw in the form tw's header picks — the one
// record loop behind every Record*To method. A bin-domain header gets
// each antenna's materialized complex frame, exactly what the pipeline
// workers would have produced; a sweep-domain header gets the raw
// time-domain sweeps, packed pairwise into complex values for float64
// samples or as the ADC codes themselves for SampleInt16. Either way
// the trace carries ground truth per frame (one state per subject), and
// replaying it through StreamFrom on a fresh identically-configured
// device is bit-identical to running the trajectories directly.
//
// A header this device cannot produce is rejected before src is
// touched: sweeps need SlowSynth (the fast path never materializes
// them) and the device's sweep shape; int16 codes need a quantizing
// radio (Radio.ADCBits), and a quantizing radio records only codes.
func (c *Pipeline) capture(tw *trace.Writer, src FrameSource) (int, error) {
	h := tw.Header()
	spf, ns := c.cfg.Radio.SweepsPerFrame, c.cfg.Radio.SamplesPerSweep()
	int16s := h.Sample == trace.SampleInt16
	switch {
	case h.Domain != trace.DomainSweeps:
	case !c.cfg.SlowSynth:
		return 0, fmt.Errorf("core: sweep recording requires SlowSynth (the fast path never materializes time-domain sweeps)")
	case h.SweepsPerFrame != spf || h.SamplesPerSweep != ns:
		return 0, fmt.Errorf("core: trace sweep shape %d × %d does not match the device's %d × %d",
			h.SweepsPerFrame, h.SamplesPerSweep, spf, ns)
	case int16s && c.cfg.Radio.ADCBits == 0:
		return 0, fmt.Errorf("core: int16 sweep recording requires Radio.ADCBits (the unquantized path records float64 sweeps)")
	case !int16s && c.cfg.Radio.ADCBits > 0:
		return 0, fmt.Errorf("core: device has ADCBits=%d; quantized sweeps record as int16", c.cfg.Radio.ADCBits)
	}
	scratch := c.newScratch()
	frames := make([]dsp.ComplexFrame, len(scratch))
	if h.Domain == trace.DomainSweeps && !int16s {
		for k := range frames {
			frames[k] = make(dsp.ComplexFrame, spf*ns/2)
		}
	}
	return forEachBatch(src, func(b *FrameBatch) error {
		switch {
		case int16s:
			return tw.WriteFrameInt16Truths(b.codes16, b.States)
		case h.Domain == trace.DomainSweeps:
			for k, dst := range frames {
				sw := b.sweeps[k]
				for i := range dst {
					m := 2 * i
					dst[i] = complex(sw[m/ns][m%ns], sw[(m+1)/ns][(m+1)%ns])
				}
			}
		default:
			for k := range frames {
				frames[k] = scratch[k].materialize(c.synth, c.prop, k, b)
			}
		}
		return tw.WriteFrameTruths(frames, b.States)
	})
}

// stream drives the staged pipeline over src — the one processing path
// both device types run. Every antenna's frame is materialized, passed
// through the fault injector when one is installed, and health-checked
// (see antennaScratch.health) before step sees it: step must Push a
// healthy frame and Coast through an unhealthy one, because a damaged
// frame must reach neither the tracker's background state nor its
// measurement chain. fuse then runs on the calling goroutine in frame
// order with every antenna's step output and the solve mask:
// solvable[k] is false while antenna k is dark (excluded from the
// solve). fuse must not retain the slices; returning false ends the run.
func stream[E any](c *Pipeline, ctx context.Context, src FrameSource,
	step func(k int, frame dsp.ComplexFrame, healthy bool) E,
	fuse func(b *FrameBatch, outs []E, solvable []bool) bool) {
	type antResult struct {
		out  E
		dark bool
	}
	scratch := c.newScratch()
	c.runErr = nil
	src, wd := guardSource(src, c.faults, c.FrameDeadline)
	proc := func(k int, b *FrameBatch) antResult {
		w := &scratch[k]
		frame := w.materialize(c.synth, c.prop, k, b)
		if c.faults != nil {
			frame = w.injectFault(c.faults, b.Index, k, frame)
		}
		healthy, dark := w.health(frame)
		return antResult{out: step(k, frame, healthy), dark: dark}
	}
	outs := make([]E, len(scratch))
	solvable := make([]bool, len(scratch))
	runPipeline(ctx, src, c.Workers, c.Pool, proc, func(b *FrameBatch, rs []antResult) bool {
		for k, r := range rs {
			outs[k], solvable[k] = r.out, !r.dark
		}
		return fuse(b, outs, solvable)
	})
	if wd != nil {
		wd.shutdown()
		c.runErr = wd.err
	}
}

// streamTo starts run on its own goroutine and delivers what it emits
// on the returned channel, closed when run returns or ctx is cancelled.
func streamTo[S any](ctx context.Context, run func(emit func(S) bool)) <-chan S {
	out := make(chan S, pipelineDepth)
	go func() {
		defer close(out)
		run(func(s S) bool {
			select {
			case out <- s:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return out
}
