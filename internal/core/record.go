package core

import (
	"fmt"

	"witrack/internal/dsp"
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// RecordTo simulates the trajectory and streams every frame into tw in
// the form tw's header picks (see Pipeline.capture): per-antenna
// complex frames for a TraceHeader, raw time-domain sweeps for a
// SweepTraceHeader, quantized ADC codes for a SweepTraceHeaderInt16 —
// plus ground truth, holding only one frame in memory at a time. It
// returns the number of frames written and rejects, before simulating
// anything, a header the device cannot produce. The caller closes tw
// (the trailer makes the trace verifiable; an unclosed trace reads back
// as corrupt).
//
// Like Record, this consumes the device's simulation RNG exactly as a
// live run would: record on a fresh device, replay on another.
func (d *Device) RecordTo(tw *trace.Writer, traj motion.Trajectory) (int, error) {
	return d.capture(tw, d.trajSource(traj))
}

// RecordSweepsTo is RecordTo for a float64 sweep-domain trace (the
// header must come from SweepTraceHeader). It requires SlowSynth — the
// fast path synthesizes spectra directly and never materializes sweeps.
// The samples written are bit-for-bit the sweeps a live SlowSynth run
// processes, so replaying the trace through the window + RFFT +
// averaging path on a fresh device is bit-identical to the live run —
// the sweep-domain leg of the live == replay == served parity chain.
func (d *Device) RecordSweepsTo(tw *trace.Writer, traj motion.Trajectory) (int, error) {
	if h := tw.Header(); h.Domain != trace.DomainSweeps || h.Sample != "" {
		return 0, fmt.Errorf("core: RecordSweepsTo needs a float64 sweep-domain header (SweepTraceHeader)")
	}
	return d.RecordTo(tw, traj)
}

// RecordSweepsInt16To is RecordTo for an int16 sweep-domain trace (the
// header must come from SweepTraceHeaderInt16). It requires SlowSynth
// and Radio.ADCBits > 0: the source digitizes each sweep at the
// configured resolution and the codes written are bit-for-bit the codes
// a live quantized run feeds its fused dequantize+window kernels, so
// live == recorded == replayed holds by construction — there is no
// separate "recording quantizer" to drift from the live one. Delta
// coding plus gzip makes the result roughly 4x smaller than the float64
// sweep encoding of the same signal.
func (d *Device) RecordSweepsInt16To(tw *trace.Writer, traj motion.Trajectory) (int, error) {
	if tw.Header().Sample != trace.SampleInt16 {
		return 0, fmt.Errorf("core: RecordSweepsInt16To needs an int16 sweep-domain header (SweepTraceHeaderInt16)")
	}
	return d.RecordTo(tw, traj)
}

// Record simulates the trajectory and captures every per-antenna
// complex frame into a replayable RecordedSource, together with the
// ground truth — the in-memory half of the record/replay loop
// (RecordTo writes the on-disk .wtrace form; StreamFrom replays either).
//
// Recording consumes the device's simulation RNG just like a run does,
// so use a fresh device for the capture and another fresh device for
// the replay. The capture is memory heavy (one complex frame per
// antenna per 12.5 ms of signal); keep trajectories short, or stream to
// disk with RecordTo instead.
func (d *Device) Record(traj motion.Trajectory) *RecordedSource {
	rec := &RecordedSource{Interval: d.cfg.Radio.FrameInterval()}
	scratch := d.newScratch()
	forEachBatch(d.trajSource(traj), func(b *FrameBatch) error {
		frames := make([]dsp.ComplexFrame, len(scratch))
		for k := range frames {
			frames[k] = append(dsp.ComplexFrame(nil), scratch[k].materialize(d.synth, d.prop, k, b)...)
		}
		rec.Frames = append(rec.Frames, frames)
		if len(b.States) > 0 {
			rec.Truth = append(rec.Truth, b.States[0])
		}
		return nil
	})
	return rec
}
