package main

import (
	"fmt"

	"witrack/internal/core"
	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/locate"
	"witrack/internal/track"
)

// replicaFrame is one frame of a workload's exact input, in whichever
// form the workload's source delivers it: eager spectra (the fast path
// and bin-domain traces), raw float64 sweeps, or int16 ADC code sweeps
// with their dequantization scale. Sweeps are indexed [antenna][sweep].
type replicaFrame struct {
	spectra []dsp.ComplexFrame
	sweeps  [][][]float64
	codes   [][][]int16
	scale   float64
}

// replica is the serial re-drive of a workload through the layers'
// public functions, in pipeline order: the source, then the fmcw frame
// transform (window + RFFT + averaging) for sweep inputs, then
// track.Tracker.Push per antenna, then locate.Locator.Solve. It mirrors
// the unmonitored device pipeline, so its fixes must equal the
// pipeline's bit for bit.
type replica struct {
	synth    *fmcw.Synthesizer
	trackers []*track.Tracker
	loc      *locate.Locator
	interval float64
	ws       []*fmcw.SweepScratch
	spec     []dsp.ComplexFrame
	ests     []track.Estimate
}

func newReplica(cfg core.Config) (*replica, error) {
	synth := fmcw.NewSynthesizer(cfg.Radio)
	loc, err := locate.New(cfg.Array)
	if err != nil {
		return nil, err
	}
	tc := track.DefaultConfig(cfg.Radio.BinDistance(), cfg.Radio.FrameInterval(), synth.NoiseBinSigma())
	if cfg.TrackerOverride != nil {
		cfg.TrackerOverride(&tc)
	}
	nRx := len(cfg.Array.Rx)
	r := &replica{
		synth:    synth,
		loc:      loc,
		interval: cfg.Radio.FrameInterval(),
		ws:       make([]*fmcw.SweepScratch, nRx),
		spec:     make([]dsp.ComplexFrame, nRx),
		ests:     make([]track.Estimate, nRx),
	}
	for k := 0; k < nRx; k++ {
		r.trackers = append(r.trackers, track.New(tc))
		r.ws[k] = synth.NewSweepScratchPrecision(cfg.Precision)
	}
	return r, nil
}

// run drives n frames. next produces frame i (opening its own source
// span on tr when it decodes); a nil tr runs untraced.
func (r *replica) run(tr *tracer, n int, next func(tr *tracer, i int) (replicaFrame, error)) ([]fix, error) {
	fixes := make([]fix, 0, n)
	for i := 0; i < n; i++ {
		fs := tr.begin("frame", i)
		in, err := next(tr, i)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		spectra := in.spectra
		if in.sweeps != nil || in.codes != nil {
			s := tr.begin("dsp.frame_fft", i)
			for k := range r.spec {
				if in.codes != nil {
					r.spec[k] = r.synth.ComplexFrameFromSweepsInt16Into(r.spec[k], in.codes[k], in.scale, r.ws[k])
				} else {
					r.spec[k] = r.synth.ComplexFrameFromSweepsInto(r.spec[k], in.sweeps[k], r.ws[k])
				}
			}
			tr.end(s)
			spectra = r.spec
		}
		if len(spectra) != len(r.trackers) {
			return nil, fmt.Errorf("frame %d has %d antennas, replica has %d", i, len(spectra), len(r.trackers))
		}
		s := tr.begin("track.push", i)
		moving := 0
		for k, f := range spectra {
			r.ests[k] = r.trackers[k].Push(f)
			if r.ests[k].Moving {
				moving++
			}
		}
		tr.end(s)
		s = tr.begin("locate.solve", i)
		out := fix{T: float64(i) * r.interval}
		if pos, err := r.loc.Solve(r.ests); err == nil {
			out.X, out.Y, out.Z = pos.X, pos.Y, pos.Z
			out.Valid = true
			out.Moving = moving >= 2
		}
		tr.end(s)
		tr.end(fs)
		fixes = append(fixes, out)
	}
	return fixes, nil
}
