package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"witrack/internal/core"
	"witrack/internal/dsp"
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// sizes fixes one workload's input and phases: the walk length, the
// paced multiple of real time (chosen so the pipeline is well under
// capacity), the frames encoded per capture pass, and the flat-out and
// capture passes per round (enough that each phase gets a comparable
// share of the run).
type sizes struct {
	walkS         float64
	speed         float64
	capture       int
	fpsPasses     int
	capturePasses int
}

var (
	simFastSizes    = sizes{walkS: 20, speed: 10, capture: 400, fpsPasses: 4, capturePasses: 3} // 1601 frames, 800 frames/s paced
	simTDSizes      = sizes{walkS: 2, speed: 1, capture: 161, fpsPasses: 1, capturePasses: 4}   // 161 frames, 80 frames/s paced
	traceInt16Sizes = sizes{walkS: 2, speed: 2, capture: 161, fpsPasses: 1, capturePasses: 1}   // 161 frames, 160 frames/s paced
)

const traceInt16Bits = 14

// simInputs is one seeded in-process input set.
type simInputs struct {
	cfg    core.Config
	walk   motion.Trajectory
	frames int
	sz     sizes
	// What a capture pass encodes: the header, per-frame records
	// (spectra, or int16 codes indexed [frame][antenna]) and truths.
	header  trace.Header
	spectra [][]dsp.ComplexFrame
	codes   [][][]int16
	truths  []motion.BodyState
	// out holds a capture pass's bytes. It is reused, so after the
	// first pass a capture times the encoder, not the buffer's growth.
	out bytes.Buffer
}

func simConfig(seed int64, slow bool, adcBits int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.SlowSynth = slow
	cfg.Radio.ADCBits = adcBits
	return cfg
}

// seededWalk is the benchmark's subject motion: the standard random walk
// without pauses and at one walking speed (the middle of the default
// range), so the seed picks only the route. A walk of a few seconds is
// a leg or two, and both a 1-3 s pause and the leg's speed change how
// well the trace codec compresses (up to 4x in encode time), so a seed
// that drew a pause or a slow leg would otherwise change a run's cost.
func seededWalk(cfg core.Config, seconds float64, seed int64) motion.Trajectory {
	wc := motion.DefaultWalkConfig(motion.Region{XMin: -1.5, XMax: 1.5, YMin: 3, YMax: 4.6}, cfg.Subject.CenterHeight(), seconds, seed)
	wc.PauseProb = 0
	wc.MinSpeed = (wc.MinSpeed + wc.MaxSpeed) / 2
	wc.MaxSpeed = wc.MinSpeed
	return motion.NewRandomWalk(wc)
}

func newDevice(cfg core.Config) *core.Device {
	dev, err := core.NewDevice(cfg)
	if err != nil {
		panic(err) // the configurations here are fixed and valid
	}
	return dev
}

// collect drains a sample stream into fixes.
func collect(ch <-chan core.Sample, n int) []fix {
	out := make([]fix, 0, n)
	for s := range ch {
		out = append(out, fixFromSample(s))
	}
	return out
}

// timedSetups runs setup repeatedly — at least setupMinReps times and
// until setupMinTotal has been spent, at most setupMaxReps times — and
// returns the last result with the median duration in seconds.
func timedSetups[T any](setup func() (T, error)) (T, float64, error) {
	var last T
	var times []float64
	begin := time.Now()
	for i := 0; i < setupMinReps || (i < setupMaxReps && time.Since(begin) < setupMinTotal); i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
		// Collect the discarded setups' garbage outside the timing, so
		// peak RSS reflects one input set, not however many piled up.
		runtime.GC()
	}
	return last, median(times), nil
}

// simSetup builds a sim-* input set: the seeded configuration and walk,
// the capture records (the frames Device.Record materializes, which a
// bin-domain capture of this deployment writes), and a warm-up pass.
func simSetup(seed int64, slow bool) (*simInputs, error) {
	in := &simInputs{cfg: simConfig(seed, slow, 0), sz: simFastSizes}
	if slow {
		in.sz = simTDSizes
	}
	in.walk = seededWalk(in.cfg, in.sz.walkS, seed+1)
	dev := newDevice(in.cfg)
	rec := dev.Record(in.walk)
	in.header = dev.TraceHeader()
	in.spectra, in.truths = rec.Frames, rec.Truth
	in.frames = len(in.spectra)
	// Warm-up: one short pass through the pipeline (plans, rings, code).
	warm := newDevice(in.cfg)
	for range warm.Stream(context.Background(), seededWalk(in.cfg, 0.2, seed+1)) {
	}
	return in, nil
}

// capture encodes the first n capture records into a fresh in-memory
// trace and returns its bytes, which stay valid until the next capture;
// tr, when non-nil, records one trace.encode span per frame plus the
// closing flush.
func (in *simInputs) capture(tr *tracer, n int) ([]byte, error) {
	in.out.Reset()
	tw, err := trace.NewWriter(&in.out, in.header)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var truth *motion.BodyState
		if i < len(in.truths) {
			truth = &in.truths[i]
		}
		s := tr.begin("trace.encode", i)
		if in.codes != nil {
			err = tw.WriteFrameInt16(in.codes[i], truth)
		} else {
			err = tw.WriteFrame(in.spectra[i], truth)
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s := tr.begin("trace.encode", -1)
	err = tw.Close()
	tr.end(s)
	return in.out.Bytes(), err
}

// timedCapture is one untraced capture pass of n frames and the time
// its encode took. It starts from a collected heap, so whether a
// collection happens to land inside the pass does not decide its time.
func (in *simInputs) timedCapture(n int) ([]byte, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	data, err := in.capture(nil, n)
	return data, time.Since(t0), err
}

// verifyCapture checks a capture pass's bytes: the first pass must
// decode back to exactly its inputs, every later pass must be
// byte-identical to the first.
func (in *simInputs) verifyCapture(data, first []byte, n int) error {
	if first != nil {
		if !bytes.Equal(data, first) {
			return fmt.Errorf("capture is not byte-identical to the first capture (%d vs %d bytes)", len(data), len(first))
		}
		return nil
	}
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if in.codes != nil {
			codes, _, err := tr.ReadFrameInt16Into(nil, nil)
			if err != nil {
				return err
			}
			for k := range codes {
				if !slices.Equal(codes[k], in.codes[i][k]) {
					return fmt.Errorf("frame %d antenna %d codes differ after round trip", i, k)
				}
			}
			continue
		}
		frames, _, _, err := tr.ReadFrame()
		if err != nil {
			return err
		}
		for k := range frames {
			if !slices.Equal(frames[k], in.spectra[i][k]) {
				return fmt.Errorf("frame %d antenna %d differs after round trip", i, k)
			}
		}
	}
	if in.codes != nil {
		_, _, err = tr.ReadFrameInt16Into(nil, nil)
	} else {
		_, _, _, err = tr.ReadFrame()
	}
	if !errors.Is(err, io.EOF) {
		return fmt.Errorf("capture does not end cleanly after %d frames (%v)", n, err)
	}
	return nil
}

// lagCollector gathers the lags of paced passes and the generator's
// lateness.
type lagCollector struct {
	lagMS  []float64
	lateMS []float64
}

// pacedStream consumes a paced sample stream, recording each fix's lag
// behind its frame's due time.
func (l *lagCollector) pacedStream(ch <-chan core.Sample, sched schedule, n int) []fix {
	out := make([]fix, 0, n)
	for s := range ch {
		now := time.Now()
		l.lagMS = append(l.lagMS, float64(now.Sub(sched.due(frameIndex(s.T, sched.interval))))/1e6)
		out = append(out, fixFromSample(s))
	}
	return out
}

// putLag reports lag_p50_ms and lag_p99_ms over every paced frame of
// the run: the median, and the highest percentile (at most p99) with ten
// samples beyond it. The notes give the percentile used and the count.
func (b *bench) putLag(lagMS, lateMS []float64, speed, rateFPS float64) error {
	t, err := tailPercentile(lagMS, 99)
	if err != nil {
		return fmt.Errorf("paced passes: %w", err)
	}
	late, _ := tailPercentile(lateMS, 99)
	b.note("lag", map[string]any{
		"speed_x_realtime": speed, "rate_fps": rateFPS, "samples": t.Samples,
		"tail_percentile": t.Percentile, "generator_late_tail_ms": late.Value,
	})
	return firstErr(
		b.e2e.put("lag_p50_ms", percentile(lagMS, 50)),
		b.e2e.put("lag_p99_ms", t.Value),
	)
}

// putRates reports the flat-out and capture rates as medians of passes.
func (b *bench) putRates(fps, capture []float64, frames, captureFrames int) error {
	b.note("passes", map[string]any{"fps": fps, "capture": capture,
		"frames_per_pass": frames, "frames_per_capture": captureFrames})
	return firstErr(
		b.e2e.put("fps", median(fps)),
		b.e2e.put("capture_fps", median(capture)),
	)
}

// captureRound times one capture pass of in's records and verifies it
// against the first pass (first is set on the first call).
func (b *bench) captureRound(in *simInputs, first *[]byte) (rate float64, data []byte, err error) {
	n := min(in.sz.capture, in.frames)
	data, took, err := in.timedCapture(n)
	rate = float64(n) / took.Seconds()
	if err == nil {
		err = in.verifyCapture(data, *first, n)
		if *first == nil {
			*first = bytes.Clone(data)
		}
	}
	b.check("capture pass", err)
	return rate, data, err
}

// runSim is the sim-fast (slow=false) and sim-td (slow=true) workload:
// Device.Stream on the paper deployment with one seeded random walk.
// Each round runs flat-out passes on fresh devices, one capture pass of
// the recorded frames, and one paced pass; every pass's fixes must
// equal a fresh device's Run of the same walk.
func runSim(b *bench, slow bool) error {
	in, setupS, err := timedSetups(func() (*simInputs, error) { return simSetup(b.opts.seed, slow) })
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if err := b.e2e.put("setup_s", setupS); err != nil {
		return err
	}
	ref := newDevice(in.cfg).Run(in.walk)
	want := make([]fix, len(ref.Samples))
	for i, s := range ref.Samples {
		want[i] = fixFromSample(s)
	}
	b.note("reference_digest", digest(want))

	var fps, capRates []float64
	var lags lagCollector
	var first []byte
	start := time.Now()
	for round := 0; b.another(start, round); round++ {
		for p := 0; p < in.sz.fpsPasses; p++ {
			dev := newDevice(in.cfg)
			t0 := time.Now()
			got := collect(dev.Stream(context.Background(), in.walk), in.frames)
			fps = append(fps, float64(len(got))/time.Since(t0).Seconds())
			b.check("stream pass fixes equal the reference run", sameFixes(got, want))
		}

		for p := 0; p < in.sz.capturePasses; p++ {
			rate, _, _ := b.captureRound(in, &first)
			capRates = append(capRates, rate)
		}

		dev := newDevice(in.cfg)
		sched := schedule{start: time.Now(), interval: in.cfg.Radio.FrameInterval(), speed: in.sz.speed}
		paced := pacedTrajectory{Trajectory: in.walk, sched: sched, late: &lags.lateMS}
		got := lags.pacedStream(dev.Stream(context.Background(), paced), sched, in.frames)
		b.check("paced pass fixes equal the reference run", sameFixes(got, want))
	}
	if err := firstErr(
		b.putRates(fps, capRates, in.frames, min(in.sz.capture, in.frames)),
		b.putLag(lags.lagMS, lags.lateMS, in.sz.speed, in.sz.speed/in.cfg.Radio.FrameInterval()),
		b.e2e.put("peak_rss_mb", selfPeakRSSMB()),
	); err != nil {
		return err
	}
	if b.opts.trace {
		return traceSim(b, in, want, slow)
	}
	return nil
}

// gcHow describes core.gc_cpu_frac wherever it is reported.
const gcHow = "measured: runtime/metrics GC CPU share (the closing forced GC included)"

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// allocsAndGC runs f once and returns heap allocations per frame and
// the GC share of CPU over the call.
func allocsAndGC(frames int, f func()) (allocs, gcFrac float64) {
	runtime.GC() // start both readings from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0, t0 := gcCPU()
	f()
	runtime.GC() // the CPU-class estimates are only brought up to date by a GC
	g1, t1 := gcCPU()
	runtime.ReadMemStats(&m1)
	if t1 > t0 {
		gcFrac = (g1 - g0) / (t1 - t0)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(frames), gcFrac
}

// tracedPair runs body untraced, traced, and untraced again, checks
// every fix set against want, reports the tracing overhead (traced wall
// minus the mean untraced wall, so warm-up favours neither side) and the
// self-time check, writes the spans and returns them.
func (b *bench) tracedPair(label string, frames int, want []fix,
	body func(tr *tracer) ([]fix, error)) ([]span, error) {
	untraced := func() time.Duration {
		t0 := time.Now()
		got, err := body(nil)
		el := time.Since(t0)
		if err == nil {
			err = sameFixes(got, want)
		}
		b.check(label+": untraced serial replica fixes equal the pipeline's", err)
		return el
	}
	u0 := untraced()
	tr := newTracer()
	root := tr.begin("traced", -1)
	got, err := body(tr)
	tr.end(root)
	traced := time.Duration(tr.spans[root].End - tr.spans[root].Start)
	if err == nil {
		err = sameFixes(got, want)
	}
	b.check(label+": traced serial replica fixes equal the pipeline's bit for bit", err)
	b.check(label+": summed self time within wall × GOMAXPROCS", checkSelfTime(tr.spans, traced, runtime.GOMAXPROCS(0)))
	u := (u0 + untraced()) / 2

	path := filepath.Join(b.opts.outDir, fmt.Sprintf("spans-%s-%s-seed%d.jsonl", b.opts.workload, label, b.opts.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	b.note("tracing."+label, map[string]any{
		"untraced_wall_ms": u.Seconds() * 1e3, "traced_wall_ms": traced.Seconds() * 1e3,
		"overhead_ms": (traced - u).Seconds() * 1e3, "spans": len(tr.spans), "frames": frames, "span_file": path,
	})
	return tr.spans, nil
}

// perFrameUS is the summed duration of the named spans per frame, in µs.
func perFrameUS(dur map[string]time.Duration, name string, frames int) float64 {
	return float64(dur[name].Nanoseconds()) / 1e3 / float64(frames)
}

// traceSim is the traced run of a sim-* workload: a fresh device's
// Device.Record (body synthesis as a whole, the only public way in),
// then per frame the time-domain path's fmcw frame transform on the
// run's exact sweeps (read back from a sweep-domain recording of the
// same walk), Tracker.Push and Locator.Solve.
func traceSim(b *bench, in *simInputs, want []fix, slow bool) error {
	allocs, gcFrac := allocsAndGC(in.frames, func() {
		collect(newDevice(in.cfg).Stream(context.Background(), in.walk), in.frames)
	})
	var sweepTrace []byte
	if slow {
		var buf bytes.Buffer
		dev := newDevice(in.cfg)
		tw, err := trace.NewWriter(&buf, dev.SweepTraceHeader())
		if err == nil {
			_, err = dev.RecordSweepsTo(tw, in.walk)
		}
		if err == nil {
			err = tw.Close()
		}
		if err != nil {
			return fmt.Errorf("recording the run's sweeps: %w", err)
		}
		sweepTrace = buf.Bytes()
	}
	spans, err := b.tracedPair("replica", in.frames, want, func(tr *tracer) ([]fix, error) {
		s := tr.begin("fmcw.record", -1)
		newDevice(in.cfg).Record(in.walk)
		tr.end(s)
		r, err := newReplica(in.cfg)
		if err != nil {
			return nil, err
		}
		if !slow {
			return r.run(tr, in.frames, func(_ *tracer, i int) (replicaFrame, error) {
				return replicaFrame{spectra: in.spectra[i]}, nil
			})
		}
		rd, err := trace.NewReader(bytes.NewReader(sweepTrace))
		if err != nil {
			return nil, err
		}
		return r.run(tr, in.frames, (&sweepDecoder{rd: rd, span: "source.sweeps"}).next)
	})
	if err != nil {
		return err
	}
	dur := layerTotals(spans)
	n := in.frames
	// Record synthesizes and, on the time-domain path, also transforms
	// every frame; the synthesis share is Record minus the replica's own
	// transforms of the same sweeps.
	synth := perFrameUS(dur, "fmcw.record", n) - perFrameUS(dur, "dsp.frame_fft", n)
	derived := "derived: fmcw.record span minus dsp.frame_fft spans over the same frames, per frame"
	bypass := "bypassed (0): this workload does not run that path"
	sweepSynth, spectralSynth := 0.0, synth
	sweepHow, spectralHow := bypass, derived
	fftHow := bypass
	if slow {
		sweepSynth, spectralSynth = synth, 0
		sweepHow, spectralHow = derived, bypass
		fftHow = "timed: fmcw ComplexFrameFromSweepsInto spans, all antennas, per frame"
	}
	noSource := "not measured (0): the simulator source is internal to Device.Stream and cannot be wrapped"
	return firstErr(
		b.putLayer("fmcw.sweep_synth_us", sweepSynth, sweepHow),
		b.putLayer("fmcw.spectral_synth_us", spectralSynth, spectralHow),
		b.putLayer("dsp.frame_fft_us", perFrameUS(dur, "dsp.frame_fft", n), fftHow),
		b.putLayer("track.push_us", perFrameUS(dur, "track.push", n), "timed: Tracker.Push spans, all antennas, per frame"),
		b.putLayer("locate.solve_us", perFrameUS(dur, "locate.solve", n), "timed: Locator.Solve spans per frame"),
		b.putLayer("core.allocs_per_frame", allocs, "measured: heap allocations per fix over one untraced Device.Stream pass"),
		b.putLayer("core.gc_cpu_frac", gcFrac, gcHow+" over one untraced Device.Stream pass"),
		b.putLayer("core.source_busy_frac", 0, noSource),
		b.putLayer("core.source_blocked_frac", 0, noSource),
		b.putBypassed("trace.decode_us", "trace.decode_allocs_per_frame", "core.batch_coalesced_frac",
			"core.batch_overhead_us", "scenario.compile_ms", "svc.first_fix_ms", "svc.ingest_mb_per_s",
			"svc.gen_late_p99_ms", "svc.sessions_failed"),
		b.putCaptureLayers([]*simInputs{in}),
	)
}

// putCaptureLayers times one traced capture pass of each input's records
// and reports trace.encode_us and trace.bytes_per_frame over all of them.
func (b *bench) putCaptureLayers(ins []*simInputs) error {
	tr := newTracer()
	frames, size := 0, 0
	for _, in := range ins {
		n := min(in.sz.capture, in.frames)
		data, err := in.capture(tr, n)
		if err != nil {
			return err
		}
		frames += n
		size += len(data)
	}
	dur := layerTotals(tr.spans)
	return firstErr(
		b.putLayer("trace.encode_us", perFrameUS(dur, "trace.encode", frames),
			fmt.Sprintf("timed: Writer.WriteFrame* + Close spans over %d captured frames, per frame", frames)),
		b.putLayer("trace.bytes_per_frame", float64(size)/float64(frames),
			fmt.Sprintf("counted: captured bytes per frame over %d frames", frames)),
	)
}

// putBypassed reports layers a workload never enters as 0.
func (b *bench) putBypassed(names ...string) error {
	for _, name := range names {
		if err := b.putLayer(name, 0, "bypassed (0): this workload does not enter the layer"); err != nil {
			return err
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// unpackSweeps expands one sweep-domain record (raw sweeps packed
// pairwise into complex values, the trace.DomainSweeps layout) back into
// per-antenna, per-sweep sample buffers, reusing dst.
func unpackSweeps(dst [][][]float64, packed []dsp.ComplexFrame, spf, ns int) [][][]float64 {
	if len(dst) != len(packed) {
		dst = make([][][]float64, len(packed))
	}
	for k, f := range packed {
		if len(dst[k]) != spf {
			dst[k] = make([][]float64, spf)
		}
		for j := 0; j < spf; j++ {
			if len(dst[k][j]) != ns {
				dst[k][j] = make([]float64, ns)
			}
			for t := 0; t < ns; t++ {
				m := j*ns + t
				if c := f[m/2]; m%2 == 0 {
					dst[k][j][t] = real(c)
				} else {
					dst[k][j][t] = imag(c)
				}
			}
		}
	}
	return dst
}
