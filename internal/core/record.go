package core

import (
	"fmt"

	"witrack/internal/dsp"
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// RecordSweepsTo simulates the trajectory and streams every frame's raw
// time-domain sweeps into tw as a sweep-domain trace (the header must
// come from SweepTraceHeader). It requires SlowSynth — the fast path
// synthesizes spectra directly and never materializes sweeps. The
// samples written are bit-for-bit the sweeps a live SlowSynth run
// processes (the RNG is consumed identically), so replaying the trace
// through the window + RFFT + averaging path on a fresh device is
// bit-identical to the live run — the sweep-domain leg of the
// live == replay == served parity chain.
func (d *Device) RecordSweepsTo(tw *trace.Writer, traj motion.Trajectory) (int, error) {
	if !d.cfg.SlowSynth {
		return 0, fmt.Errorf("core: sweep recording requires SlowSynth (the fast path never materializes time-domain sweeps)")
	}
	if d.cfg.Radio.ADCBits > 0 {
		return 0, fmt.Errorf("core: device has ADCBits=%d; quantized sweeps record as int16 (use RecordSweepsInt16To)", d.cfg.Radio.ADCBits)
	}
	spf := d.cfg.Radio.SweepsPerFrame
	ns := d.cfg.Radio.SamplesPerSweep()
	if spf*ns%2 != 0 {
		return 0, fmt.Errorf("core: %d sweeps × %d samples cannot pack into complex pairs", spf, ns)
	}
	bins := spf * ns / 2
	nRx := len(d.cfg.Array.Rx)
	packed := make([]dsp.ComplexFrame, nRx)
	for k := range packed {
		packed[k] = make(dsp.ComplexFrame, bins)
	}
	return forEachBatch(d.trajSource(traj), func(b *FrameBatch) error {
		for k := 0; k < nRx; k++ {
			sw := b.sweeps[k]
			dst := packed[k]
			for i := 0; i < bins; i++ {
				m := 2 * i
				dst[i] = complex(sw[m/ns][m%ns], sw[(m+1)/ns][(m+1)%ns])
			}
		}
		return tw.WriteFrameTruths(packed, b.States)
	})
}

// RecordSweepsInt16To simulates the trajectory and streams every
// frame's quantized ADC codes into tw as an int16 sweep-domain trace
// (the header must come from SweepTraceHeaderInt16). It requires
// SlowSynth and Radio.ADCBits > 0: the source digitizes each sweep at
// the configured resolution and the codes written here are bit-for-bit
// the codes a live quantized run feeds its fused dequantize+window
// kernels, so live == recorded == replayed holds by construction —
// there is no separate "recording quantizer" to drift from the live
// one. Delta coding plus gzip makes the result roughly 4x smaller than
// the float64 sweep encoding of the same signal.
func (d *Device) RecordSweepsInt16To(tw *trace.Writer, traj motion.Trajectory) (int, error) {
	if !d.cfg.SlowSynth {
		return 0, fmt.Errorf("core: sweep recording requires SlowSynth (the fast path never materializes time-domain sweeps)")
	}
	if d.cfg.Radio.ADCBits == 0 {
		return 0, fmt.Errorf("core: int16 sweep recording requires Radio.ADCBits (the unquantized path records float64 sweeps; use RecordSweepsTo)")
	}
	return forEachBatch(d.trajSource(traj), func(b *FrameBatch) error {
		return tw.WriteFrameInt16Truths(b.codes16, b.States)
	})
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
	d.record(d.trajSource(traj), func(frames []dsp.ComplexFrame, truths []motion.BodyState) error {
		cp := make([]dsp.ComplexFrame, len(frames))
		for k, f := range frames {
			cp[k] = append(dsp.ComplexFrame(nil), f...)
		}
		rec.Frames = append(rec.Frames, cp)
		if len(truths) > 0 {
			rec.Truth = append(rec.Truth, truths[0])
		}
		return nil
	})
	return rec
}
