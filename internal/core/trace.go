package core

import (
	"errors"
	"fmt"
	"io"

	"witrack/internal/dsp"
	"witrack/internal/fmcw"
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// SweepTraceHeader is TraceHeader for a sweep-domain capture: the
// records hold the raw time-domain sweeps the device digitizes, so a
// replay runs the full window + RFFT + averaging path per frame instead
// of consuming pre-transformed bins. A quantizing radio (Radio.ADCBits
// > 0) records its ADC codes, so its sweep header is
// SweepTraceHeaderInt16; any other device records float64 samples
// packed pairwise into the complex record layout (see
// trace.DomainSweeps).
func (c *Pipeline) SweepTraceHeader() trace.Header {
	if c.cfg.Radio.ADCBits > 0 {
		return c.SweepTraceHeaderInt16()
	}
	h := c.sweepShape()
	h.Bins = h.SweepsPerFrame * h.SamplesPerSweep / 2
	return h
}

// SweepTraceHeaderInt16 is SweepTraceHeader for a quantized capture
// (Radio.ADCBits > 0): the records carry delta-coded int16 ADC codes
// (trace.SampleInt16) instead of float64 samples, and the header stamps
// the deployment's quantizer — the ADC resolution and the dequantization
// scale derived from the loudest antenna's static environment, exactly
// the scale the live pipeline quantizes with.
func (c *Pipeline) SweepTraceHeaderInt16() trace.Header {
	h := c.sweepShape()
	h.Sample = trace.SampleInt16
	h.ADCBits = c.cfg.Radio.ADCBits
	h.ADCScale = fmcw.NewQuantizer(c.cfg.Radio.ADCBits,
		adcFullScale(c.prop, len(c.cfg.Array.Rx), c.cfg.Radio.NoiseFloorWatts)).Scale()
	return h
}

// sweepShape is TraceHeader turned sweep-domain: the device's sweep
// shape, with no sample encoding or bin count chosen yet.
func (c *Pipeline) sweepShape() trace.Header {
	h := c.TraceHeader()
	h.Domain = trace.DomainSweeps
	h.SweepsPerFrame = c.cfg.Radio.SweepsPerFrame
	h.SamplesPerSweep = c.cfg.Radio.SamplesPerSweep()
	h.Bins = 0
	return h
}

// TraceSource adapts a trace.Reader into the pipeline's FrameSource:
// the on-disk replay path. Batches and their frame buffers are recycled
// through a fixed ring and the reader decodes into them in place, so a
// warm replay stream allocates nothing per frame — replaying a corpus
// costs decompression, not synthesis.
//
// FrameSource has no error channel (Next returns nil at end of stream),
// so decode failures latch into Err; callers must check it after the
// stream drains to distinguish a clean end from a corrupt trace.
type TraceSource struct {
	r    *trace.Reader
	ring *batchRing
	err  error
}

// NewTraceSource wraps an opened trace reader with a private recycling
// ring (the right choice for a one-shot replay).
func NewTraceSource(r *trace.Reader) *TraceSource {
	return &TraceSource{r: r, ring: newBatchRing(ringCapacity)}
}

// FrameArena is a shared recycling arena for pipeline frame batches: a
// mempool-style pool of decoded-frame buffers that outlives any single
// replay. A daemon serving many short trace sessions hands every
// TraceSource the same arena, so the complex-frame and truth buffers
// one session warmed up are decoded into again by the next session
// instead of being re-allocated per connection. Safe for concurrent use
// by any number of sessions; buffers of mismatched shape (a trace with
// different bins or antenna count) are simply resized on first decode.
type FrameArena struct {
	ring *batchRing
}

// defaultArenaCapacity retains enough batches for dozens of concurrent
// sessions at pipeline depth.
const defaultArenaCapacity = 256

// NewFrameArena builds an arena retaining at most capacity recycled
// batches (capacity <= 0 selects a default sized for a multi-session
// daemon).
func NewFrameArena(capacity int) *FrameArena {
	if capacity <= 0 {
		capacity = defaultArenaCapacity
	}
	return &FrameArena{ring: newBatchRing(capacity)}
}

// NewTraceSourceArena is NewTraceSource recycling batches through the
// shared arena instead of a private ring. A nil arena falls back to a
// private ring.
func NewTraceSourceArena(r *trace.Reader, a *FrameArena) *TraceSource {
	if a == nil {
		return NewTraceSource(r)
	}
	return &TraceSource{r: r, ring: a.ring}
}

// Header returns the trace metadata.
func (s *TraceSource) Header() trace.Header { return s.r.Header() }

// NumRx returns the antenna count of the trace.
func (s *TraceSource) NumRx() int { return s.r.Header().NumRx }

// Err returns the first decode error, if any. io.EOF (a clean end of
// trace) is not an error and reports nil.
func (s *TraceSource) Err() error { return s.err }

// Skipped reports how many corrupt records the underlying reader has
// skipped so far (always zero unless the reader is in recover mode).
func (s *TraceSource) Skipped() int { return s.r.Skipped() }

// Next decodes the next recorded batch, or returns nil at end of trace
// or on the first decode error (latched into Err). The reader decodes
// into the batch's recycled buffers in place: float64 records into its
// complex frames (then, for sweep-domain traces, unpacked into per-sweep
// sample buffers), int16 records into its code buffers with the
// per-sweep job views re-sliced over them — no dequantized staging copy
// exists anywhere; the workers' fused kernels read the codes directly.
func (s *TraceSource) Next() *FrameBatch {
	if s.err != nil {
		return nil
	}
	h := s.r.Header()
	b := s.ring.get()
	b.synth = nil
	var truths []motion.BodyState
	var err error
	if h.Sample == trace.SampleInt16 {
		var codes [][]int16
		if codes, truths, err = s.r.ReadFrameInt16Into(b.codes16, b.States[:0]); err == nil {
			b.codes16, b.scale16, b.Frames, b.sweeps = codes, h.ADCScale, nil, nil
			err = viewSweeps16(b, &h)
		}
	} else {
		var frames []dsp.ComplexFrame
		if frames, truths, err = s.r.ReadFrameTruthsInto(b.Frames, b.States[:0]); err == nil {
			b.Frames, b.sweeps16 = frames, nil
			if h.Domain == trace.DomainSweeps {
				err = unpackSweeps(b, &h)
			} else {
				b.sweeps = nil
			}
		}
	}
	if err != nil {
		s.ring.put(b)
		if !errors.Is(err, io.EOF) {
			s.err = err
		}
		return nil
	}
	// The recorded index, not the decode count: in recover mode a skipped
	// record leaves a gap in Index/T exactly like a dropped frame would.
	b.Index = s.r.FrameIndex()
	b.T = float64(b.Index) * h.Interval
	b.States = truths
	return b
}

// viewSweeps16 slices each antenna's decoded codes into the per-sweep
// job views the workers read (reused across recycled batches).
func viewSweeps16(b *FrameBatch, h *trace.Header) error {
	spf, ns := h.SweepsPerFrame, h.SamplesPerSweep
	if len(b.sweeps16) != len(b.codes16) {
		b.sweeps16 = make([][][]int16, len(b.codes16))
	}
	for k, c := range b.codes16 {
		if len(c) != spf*ns {
			return fmt.Errorf("core: int16 sweep record for antenna %d has %d codes, want %d (%d sweeps × %d samples)",
				k, len(c), spf*ns, spf, ns)
		}
		views := b.sweeps16[k]
		if len(views) != spf {
			views = make([][]int16, spf)
		}
		for j := range views {
			views[j] = c[j*ns : (j+1)*ns]
		}
		b.sweeps16[k] = views
	}
	return nil
}

// unpackSweeps expands a sweep-domain record's pairwise-packed complex
// values (b.Frames) back into per-sweep float64 sample buffers (reused
// across recycled batches), so the pipeline workers run the full window
// + RFFT + averaging path on them. The packed Frames buffers stay on the
// batch for ring reuse; materialize prefers b.sweeps when set.
func unpackSweeps(b *FrameBatch, h *trace.Header) error {
	spf, ns := h.SweepsPerFrame, h.SamplesPerSweep
	bins := spf * ns / 2
	if len(b.sweeps) != len(b.Frames) {
		b.sweeps = make([][][]float64, len(b.Frames))
	}
	for k, f := range b.Frames {
		if len(f) != bins {
			return fmt.Errorf("core: sweep-domain record for antenna %d has %d values, want %d (%d sweeps × %d samples)",
				k, len(f), bins, spf, ns)
		}
		sw := b.sweeps[k]
		if len(sw) != spf {
			sw = make([][]float64, spf)
		}
		for j := range sw {
			buf := sw[j]
			if len(buf) != ns {
				buf = make([]float64, ns)
			}
			base := j * ns
			for t := range buf {
				c := f[(base+t)/2]
				if (base+t)%2 == 0 {
					buf[t] = real(c)
				} else {
					buf[t] = imag(c)
				}
			}
			sw[j] = buf
		}
		b.sweeps[k] = sw
	}
	return nil
}

// Recycle returns a fully processed batch to the ring; its frame
// buffers are decoded into again by a future Next.
func (s *TraceSource) Recycle(b *FrameBatch) { s.ring.put(b) }
