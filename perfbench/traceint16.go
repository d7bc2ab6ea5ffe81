package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"witrack/internal/core"
	"witrack/internal/dsp"
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// traceInt16Setup generates the trace-int16 inputs: a quantized
// (14-bit) time-domain capture of a seeded walk on the paper radio,
// recorded once through Device.RecordSweepsInt16To and decoded into
// memory so capture passes encode exactly those codes, then warms the
// replay path with one replay of the recording.
func traceInt16Setup(seed int64) (*simInputs, error) {
	cfg := simConfig(seed, true, traceInt16Bits)
	in := &simInputs{cfg: cfg, sz: traceInt16Sizes, walk: seededWalk(cfg, traceInt16Sizes.walkS, seed+1)}
	dev := newDevice(cfg)
	in.header = dev.SweepTraceHeaderInt16()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, in.header)
	if err != nil {
		return nil, err
	}
	if _, err := dev.RecordSweepsInt16To(tw, in.walk); err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	tr, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	for {
		codes, truths, err := tr.ReadFrameInt16Into(nil, nil)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		in.codes = append(in.codes, codes)
		if len(truths) > 0 {
			in.truths = append(in.truths, truths[0])
		}
	}
	in.frames = len(in.codes)
	if _, _, err := replayInt16(cfg, buf.Bytes(), nil); err != nil {
		return nil, fmt.Errorf("warm-up replay: %w", err)
	}
	return in, nil
}

// replayInt16 replays an int16 trace through Device.StreamFrom on a
// fresh device. wrap, when non-nil, decorates the trace source.
func replayInt16(cfg core.Config, data []byte, wrap func(core.FrameSource) core.FrameSource) ([]fix, time.Duration, error) {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	src := core.NewTraceSource(rd)
	var fs core.FrameSource = src
	if wrap != nil {
		fs = wrap(src)
	}
	start := time.Now()
	ch, err := newDevice(cfg).StreamFrom(context.Background(), fs)
	if err != nil {
		return nil, 0, err
	}
	got := collect(ch, 0)
	el := time.Since(start)
	return got, el, src.Err()
}

// runTraceInt16 is the trace-int16 workload: each round captures the
// setup's ADC codes into a fresh in-memory trace (capture_fps), replays
// it flat out through Device.StreamFrom(core.NewTraceSource(...))
// (fps), and replays it again paced (lag). Every replay's fixes must
// equal the live quantized run's.
func runTraceInt16(b *bench) error {
	in, setupS, err := timedSetups(func() (*simInputs, error) { return traceInt16Setup(b.opts.seed) })
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if err := b.e2e.put("setup_s", setupS); err != nil {
		return err
	}
	want := collect(newDevice(in.cfg).Stream(context.Background(), in.walk), in.frames)
	b.note("reference_digest", digest(want))

	var fps, capRates []float64
	var lags lagCollector
	var first []byte
	start := time.Now()
	for round := 0; b.another(start, round); round++ {
		rate, data, err := b.captureRound(in, &first)
		capRates = append(capRates, rate)
		if err != nil {
			continue
		}

		got, el, err := replayInt16(in.cfg, data, nil)
		fps = append(fps, float64(len(got))/el.Seconds())
		if err == nil {
			err = sameFixes(got, want)
		}
		b.check("replay fixes equal the live quantized run", err)

		// The schedule starts once the device and source exist, so frame
		// 0 is not already late by their construction.
		rd, err := trace.NewReader(bytes.NewReader(data))
		if err == nil {
			src := core.NewTraceSource(rd)
			paced := &pacedSource{FrameSource: src}
			dev := newDevice(in.cfg)
			paced.sched = schedule{start: time.Now(), interval: in.cfg.Radio.FrameInterval(), speed: in.sz.speed}
			var ch <-chan core.Sample
			if ch, err = dev.StreamFrom(context.Background(), paced); err == nil {
				got = lags.pacedStream(ch, paced.sched, in.frames)
				lags.lateMS = append(lags.lateMS, paced.late...)
				if err = src.Err(); err == nil {
					err = sameFixes(got, want)
				}
			}
		}
		b.check("paced replay fixes equal the live quantized run", err)
	}
	if len(fps) == 0 {
		return fmt.Errorf("no replay pass completed")
	}
	if err := firstErr(
		b.putRates(fps, capRates, in.frames, in.frames),
		b.putLag(lags.lagMS, lags.lateMS, in.sz.speed, in.sz.speed/in.cfg.Radio.FrameInterval()),
		b.e2e.put("peak_rss_mb", selfPeakRSSMB()),
	); err != nil {
		return err
	}
	if b.opts.trace {
		return traceTraceInt16(b, in, first, want)
	}
	return nil
}

// traceTraceInt16 is trace-int16's traced run: the pipeline's source
// occupancy measured by a FrameSource decorator, decode allocations,
// then a fresh quantized device's Record (synthesis as a whole) and the
// serial replica — Reader.ReadFrameInt16Into, fmcw
// ComplexFrameFromSweepsInt16Into, Tracker.Push, Locator.Solve — and
// one traced capture.
func traceTraceInt16(b *bench, in *simInputs, data []byte, want []fix) error {
	n := in.frames
	allocs, gcFrac := allocsAndGC(n, func() { replayInt16(in.cfg, data, nil) })

	var timed *timedSource
	got, el, err := replayInt16(in.cfg, data, func(s core.FrameSource) core.FrameSource {
		timed = &timedSource{FrameSource: s}
		return timed
	})
	if err == nil {
		err = sameFixes(got, want)
	}
	b.check("decorated-source replay fixes equal the live quantized run", err)

	decodeAllocs, err := decodeAllocsPerFrame(data)
	if err != nil {
		return err
	}

	spans, err := b.tracedPair("replica", n, want, func(tr *tracer) ([]fix, error) {
		// The live quantized device's Record: synthesis, digitizing and
		// the frame transform as a whole — the cost a capture avoids.
		s := tr.begin("fmcw.record", -1)
		newDevice(in.cfg).Record(in.walk)
		tr.end(s)
		rd, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		r, err := newReplica(in.cfg)
		if err != nil {
			return nil, err
		}
		dec := int16Decoder{rd: rd}
		return r.run(tr, n, dec.next)
	})
	if err != nil {
		return err
	}
	dur := layerTotals(spans)
	return firstErr(
		b.putLayer("trace.decode_us", perFrameUS(dur, "trace.decode", n), "timed: Reader.ReadFrameInt16Into spans per frame"),
		b.putLayer("trace.decode_allocs_per_frame", decodeAllocs, "measured: heap allocations per frame of a warm ReadFrameInt16Into loop"),
		b.putLayer("dsp.frame_fft_us", perFrameUS(dur, "dsp.frame_fft", n), "timed: fmcw ComplexFrameFromSweepsInt16Into spans, all antennas, per frame"),
		b.putLayer("track.push_us", perFrameUS(dur, "track.push", n), "timed: Tracker.Push spans, all antennas, per frame"),
		b.putLayer("locate.solve_us", perFrameUS(dur, "locate.solve", n), "timed: Locator.Solve spans per frame"),
		b.putLayer("core.allocs_per_frame", allocs, "measured: heap allocations per fix over one untraced replay pass"),
		b.putLayer("core.gc_cpu_frac", gcFrac, gcHow+" over one untraced replay pass"),
		b.putLayer("core.source_busy_frac", timed.busy.Seconds()/el.Seconds(), "measured: time inside TraceSource.Next over replay wall time (FrameSource decorator in Device.StreamFrom)"),
		b.putLayer("core.source_blocked_frac", timed.blocked.Seconds()/el.Seconds(), "measured: time between Next calls over replay wall time (FrameSource decorator in Device.StreamFrom)"),
		b.putCaptureLayers([]*simInputs{in}),
		b.putLayer("fmcw.sweep_synth_us", perFrameUS(dur, "fmcw.record", n)-perFrameUS(dur, "dsp.frame_fft", n),
			"derived: fmcw.record span (the live quantized device's Record) minus dsp.frame_fft spans over the same frames, per frame; replay itself runs no synthesis"),
		b.putBypassed("fmcw.spectral_synth_us", "core.batch_coalesced_frac",
			"core.batch_overhead_us", "scenario.compile_ms", "svc.first_fix_ms", "svc.ingest_mb_per_s",
			"svc.gen_late_p99_ms", "svc.sessions_failed"),
	)
}

// int16Decoder is the replica's source over an int16 sweep trace: one
// trace.decode span per Reader.ReadFrameInt16Into, then per-sweep views
// over the decoded codes.
type int16Decoder struct {
	rd    *trace.Reader
	codes [][]int16
	views [][][]int16
}

func (d *int16Decoder) next(tr *tracer, i int) (replicaFrame, error) {
	h := d.rd.Header()
	s := tr.begin("trace.decode", i)
	codes, _, err := d.rd.ReadFrameInt16Into(d.codes, nil)
	tr.end(s)
	if err != nil {
		return replicaFrame{}, err
	}
	d.codes = codes
	if len(d.views) != len(codes) {
		d.views = make([][][]int16, len(codes))
	}
	spf, ns := h.SweepsPerFrame, h.SamplesPerSweep
	for k, c := range codes {
		if len(c) != spf*ns {
			return replicaFrame{}, fmt.Errorf("antenna %d has %d codes, want %d", k, len(c), spf*ns)
		}
		if len(d.views[k]) != spf {
			d.views[k] = make([][]int16, spf)
		}
		for j := range d.views[k] {
			d.views[k][j] = c[j*ns : (j+1)*ns]
		}
	}
	return replicaFrame{codes: d.views, scale: h.ADCScale}, nil
}

// decodeAllocsPerFrame counts heap allocations per frame of a decode
// loop that reuses its buffers, on either sample encoding (the first
// frame warms the buffers and is not counted).
func decodeAllocsPerFrame(data []byte) (float64, error) {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	var codes [][]int16
	var frames []dsp.ComplexFrame
	var truths []motion.BodyState
	read := func() error {
		if rd.Header().Sample == trace.SampleInt16 {
			codes, truths, err = rd.ReadFrameInt16Into(codes, truths[:0])
		} else {
			frames, truths, err = rd.ReadFrameTruthsInto(frames, truths[:0])
		}
		return err
	}
	if err := read(); err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	for {
		err := read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		n++
	}
	runtime.ReadMemStats(&m1)
	if n == 0 {
		return 0, fmt.Errorf("trace has a single frame; nothing warm to count")
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}
