package fmcw

import (
	"math"
	"math/cmplx"
	"math/rand"

	"witrack/internal/dsp"
)

// Synthesizer turns lists of propagation paths into the FFT frames the
// tracking pipeline consumes. It supports two equivalent levels:
//
//   - SynthesizeSweep/ComplexFrameFromSweepsInto: generate the
//     time-domain baseband signal sample by sample, window it, FFT it —
//     the exact processing of the paper's §7 implementation.
//   - SynthesizeFrame: generate the windowed FFT frame directly in the
//     frequency domain using the window's spectral kernel. This is
//     hundreds of times faster and statistically identical (the signal
//     part is the same deterministic spectrum; the noise part is the
//     same complex Gaussian), which makes the paper's hundred-minute
//     evaluation workloads tractable in a test suite. Equivalence is
//     property-tested in synth_test.go.
//
// Both levels average SweepsPerFrame sweeps coherently (complex average,
// then magnitude), implementing the paper's 5-sweep averaging that boosts
// human reflections against noise (§4.3).
type Synthesizer struct {
	cfg    Config
	window []float64
	// window32 is the window narrowed to float32 for the Precision ==
	// Float32 sweep path (each coefficient correctly rounded once).
	window32 []float32
	// winSum is sum(w[n]) — the DC gain of the window.
	winSum float64
	// noisePerComp is the per-component (Re/Im) standard deviation of
	// FFT-bin noise for a single sweep.
	noisePerComp float64
	// kernel is the window's complex spectral kernel K(delta) sampled on
	// a fine grid; kernelStep is the grid spacing in bins.
	kernel     []complex128
	kernelHalf float64 // kernel covers delta in [-kernelHalf, +kernelHalf]
	kernelStep float64
	// plan is the shared FFT plan for the sweep FFT size; the time-domain
	// path runs the real-input transform against it (the input is a real
	// baseband signal, so conjugate symmetry halves the butterfly work).
	plan *dsp.Plan
}

// SweepScratch owns the reusable buffers of the time-domain sweep path:
// the RFFT batch arena and (for the full slow-synthesis entry points)
// the per-sweep sample buffers. A scratch must be owned by exactly one
// goroutine — each pipeline worker holds its own, while the immutable
// FFT plans behind it are shared by all of them.
//
// A scratch carries the Precision knob: Float64 (the default) runs the
// golden-pinned double-precision path, Float32 routes the windowed-FFT
// hot loop through the shared Plan32 for half the memory traffic.
// RFFTBatcher intercepts a scratch's frame-level RFFT batch call so an
// external scheduler can coalesce it with other pipelines' transforms
// (witrack-svc's cross-session batching). An implementation must return
// results bit-identical to plan.RFFTBatch(dst, sweeps, window) — it may
// only change when and alongside what the butterflies execute, never
// the per-sweep arithmetic. The call blocks until the results are in
// dst, and sweeps/window must not be retained afterwards.
type RFFTBatcher interface {
	RFFTBatch(plan *dsp.Plan, dst []complex128, sweeps [][]float64, window []float64) []complex128
	// RFFTBatchInt16 is the quantized-sweep form of the same contract:
	// results must be bit-identical to
	// plan.RFFTBatchInt16(dst, sweeps, scale, window).
	RFFTBatchInt16(plan *dsp.Plan, dst []complex128, sweeps [][]int16, scale float64, window []float64) []complex128
}

type SweepScratch struct {
	prec dsp.Precision
	plan *dsp.Plan
	// batcher, when non-nil, intercepts the float64 frame transform (the
	// Float32 path keeps its private Plan32 batch — the cross-session
	// scheduler is a float64 surface, matching the golden-pinned path).
	batcher RFFTBatcher
	// spec is the float64 RFFT batch arena: one frame's sweeps are
	// transformed in a single RFFTBatch call, SweepsPerFrame segments of
	// FFTSize/2 + 1 bins each.
	spec []complex128
	// plan32/spec32 are the single-precision twins, built only when the
	// scratch runs at Float32.
	plan32 *dsp.Plan32
	spec32 []complex64
	// sweeps are SweepsPerFrame time-domain sample buffers.
	sweeps [][]float64
}

// NewSweepScratch builds a float64 scratch sized for this synthesizer's
// radio configuration. The per-sweep sample buffers are grown lazily by
// the slow-synthesis entry points, so workers that only transform
// externally supplied sweeps don't pay for them.
func (s *Synthesizer) NewSweepScratch() *SweepScratch {
	return s.NewSweepScratchPrecision(dsp.Float64)
}

// NewSweepScratchPrecision builds a scratch running the sweep hot loop
// at the given precision. The batch arenas are allocated up front (one
// frame's worth of RFFT output), so the steady-state path allocates
// nothing.
func (s *Synthesizer) NewSweepScratchPrecision(prec dsp.Precision) *SweepScratch {
	bins := s.cfg.FFTSize()/2 + 1
	ws := &SweepScratch{
		prec: prec,
		plan: s.plan,
		spec: make([]complex128, s.cfg.SweepsPerFrame*bins),
	}
	if prec == dsp.Float32 {
		ws.plan32 = dsp.Plan32For(s.cfg.FFTSize())
		ws.spec32 = make([]complex64, s.cfg.SweepsPerFrame*bins)
	}
	return ws
}

// Precision reports which sweep path the scratch drives.
func (ws *SweepScratch) Precision() dsp.Precision { return ws.prec }

// SetBatcher routes the scratch's float64 frame transforms through b —
// nil restores the direct plan call. Output is bit-identical either way
// (the RFFTBatcher contract); only the scheduling of the butterflies
// changes, so installing a batcher never perturbs the golden digests.
func (ws *SweepScratch) SetBatcher(b RFFTBatcher) { ws.batcher = b }

// Float32ErrorBound returns the tolerance the Float32 sweep path is
// gated by: the maximum per-bin error of a transformed sweep relative to
// the float64 reference's peak bin (see dsp.Plan32.ErrorBound). The
// coherent frame average only shrinks it — averaging is a convex
// combination of per-sweep spectra.
func (s *Synthesizer) Float32ErrorBound() float64 {
	return dsp.Plan32For(s.cfg.FFTSize()).ErrorBound()
}

// kernelHalfWidth is how many bins of spectral leakage the fast path
// keeps on each side of a tone. Beyond ~8 bins a Hann kernel is > 60 dB
// down — far below the noise floor of any realistic configuration.
const kernelHalfWidth = 8.0

// kernelOversample is the kernel table resolution in samples per bin.
const kernelOversample = 32

// NewSynthesizer builds a synthesizer for the given configuration.
// It panics if the configuration is invalid (programmer error).
func NewSynthesizer(cfg Config) *Synthesizer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ns := cfg.SamplesPerSweep()
	w := dsp.Hann(ns)
	s := &Synthesizer{cfg: cfg, window: w, window32: dsp.Window32(w)}
	sumW, sumW2 := 0.0, 0.0
	for _, v := range w {
		sumW += v
		sumW2 += v * v
	}
	s.winSum = sumW
	sigma := math.Sqrt(cfg.NoiseFloorWatts)
	s.noisePerComp = sigma * math.Sqrt(sumW2/2)

	// Precompute the window's complex DTFT kernel
	//   K(delta) = sum_n w[n] * exp(-j*2*pi*delta*n/N)
	// on a fine grid of fractional-bin offsets.
	n := cfg.FFTSize()
	steps := int(2*kernelHalfWidth*kernelOversample) + 1
	s.kernel = make([]complex128, steps)
	s.kernelHalf = kernelHalfWidth
	s.kernelStep = 1.0 / kernelOversample
	for i := 0; i < steps; i++ {
		delta := -kernelHalfWidth + float64(i)*s.kernelStep
		var acc complex128
		for t := 0; t < ns; t++ {
			angle := -2 * math.Pi * delta * float64(t) / float64(n)
			acc += complex(w[t], 0) * cmplx.Exp(complex(0, angle))
		}
		s.kernel[i] = acc
	}
	s.plan = dsp.PlanFor(n)
	return s
}

// Config returns the synthesizer's radio configuration.
func (s *Synthesizer) Config() Config { return s.cfg }

// oscResync is how many phasor-rotation steps the time-domain tone
// generator takes between exact trig evaluations. The rotation
// recurrence accumulates ~1 ulp of error per step, so resynchronizing
// every 64 samples bounds the relative tone error around 1e-14 — far
// below the receiver noise floor — while cutting the per-sample cost
// from a math.Cos call (the old hot spot: >half the slow path's CPU) to
// one complex multiply.
const oscResync = 64

// SynthesizeSweep produces the time-domain baseband signal of one sweep:
// a superposition of beat tones (one per path) plus white Gaussian
// receiver noise.
func (s *Synthesizer) SynthesizeSweep(paths []Path, rng *rand.Rand) []float64 {
	return s.SynthesizeSweepInto(nil, paths, rng)
}

// SynthesizeSweepInto is SynthesizeSweep writing into dst when it has
// the right length (allocating otherwise). Each tone is generated by a
// complex phasor rotated once per sample and resynchronized from exact
// trig every oscResync samples.
func (s *Synthesizer) SynthesizeSweepInto(dst []float64, paths []Path, rng *rand.Rand) []float64 {
	ns := s.cfg.SamplesPerSweep()
	if len(dst) != ns {
		dst = make([]float64, ns)
	} else {
		for t := range dst {
			dst[t] = 0
		}
	}
	dt := 1 / s.cfg.SampleRate
	for _, p := range paths {
		a := p.Amplitude()
		omega := 2 * math.Pi * s.cfg.BeatFreq(p.RoundTrip) * dt
		sn, cs := math.Sincos(omega)
		rot := complex(cs, sn)
		var c complex128
		for t := 0; t < ns; t++ {
			if t%oscResync == 0 {
				sn, cs = math.Sincos(omega*float64(t) + p.Phase)
				c = complex(a*cs, a*sn)
			}
			dst[t] += real(c)
			c *= rot
		}
	}
	sigma := math.Sqrt(s.cfg.NoiseFloorWatts)
	for t := range dst {
		dst[t] += rng.NormFloat64() * sigma
	}
	return dst
}

// ComplexFrameFromSweepsInto runs the paper's exact per-frame
// processing on time-domain sweeps: window + FFT each sweep, coherently
// average the complex spectra, truncated to the range bins of interest.
// The averaged frame lands in dst (reallocated only when the length is
// wrong) and all intermediate work runs in ws, so a streaming caller
// allocates nothing. The frame's sweeps are
// windowed and transformed in one RFFTBatch call — all sweeps share a
// single pass over each stage's twiddle table, and each sweep's bins are
// bit-identical to a sequential RealTransform (the accumulation order is
// also unchanged, so the float64 path stays pinned to the golden
// digests). At Precision == Float32 the batch runs through the shared
// Plan32 instead and the averaged complex64 bins are widened into dst;
// that path is gated by Float32ErrorBound, not bit-exactness.
func (s *Synthesizer) ComplexFrameFromSweepsInto(dst dsp.ComplexFrame, sweeps [][]float64, ws *SweepScratch) dsp.ComplexFrame {
	nb := s.cfg.RangeBins()
	if len(dst) != nb {
		dst = make(dsp.ComplexFrame, nb)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	seg := s.cfg.FFTSize()/2 + 1
	if ws.prec == dsp.Float32 {
		ws.spec32 = ws.plan32.RFFTBatch(ws.spec32, sweeps, s.window32)
		inv := float32(1) / float32(len(sweeps))
		for i := range dst {
			var acc complex64
			for j := range sweeps {
				acc += ws.spec32[j*seg+i]
			}
			acc *= complex(inv, 0)
			dst[i] = complex128(acc)
		}
		return dst
	}
	if ws.batcher != nil {
		ws.spec = ws.batcher.RFFTBatch(ws.plan, ws.spec, sweeps, s.window)
	} else {
		ws.spec = ws.plan.RFFTBatch(ws.spec, sweeps, s.window)
	}
	for j := range sweeps {
		bins := ws.spec[j*seg : j*seg+nb]
		for i := range dst {
			dst[i] += bins[i]
		}
	}
	inv := complex(1/float64(len(sweeps)), 0)
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// ComplexFrameFromSweepsInt16Into is ComplexFrameFromSweepsInto over
// quantized int16 sweeps: the same window + RFFT + coherent-average
// frame processing, entered through the fused dequantize+window kernels
// (dsp.Plan.RFFTBatchInt16) so the samples stay on their compact wire
// representation until they are packed into the FFT working buffer.
// The output is bit-identical to dequantizing every sweep into float64
// and calling ComplexFrameFromSweepsInto — the fused kernels' pinned
// contract — so the only deviation from the unquantized path is the
// quantization itself, bounded by QuantErrorBound(scale). Batcher
// interception and the Float32 precision knob compose with it exactly
// as on the float64 entry point.
func (s *Synthesizer) ComplexFrameFromSweepsInt16Into(dst dsp.ComplexFrame, sweeps [][]int16, scale float64, ws *SweepScratch) dsp.ComplexFrame {
	nb := s.cfg.RangeBins()
	if len(dst) != nb {
		dst = make(dsp.ComplexFrame, nb)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	seg := s.cfg.FFTSize()/2 + 1
	if ws.prec == dsp.Float32 {
		ws.spec32 = ws.plan32.RFFTBatchInt16(ws.spec32, sweeps, scale, s.window32)
		inv := float32(1) / float32(len(sweeps))
		for i := range dst {
			var acc complex64
			for j := range sweeps {
				acc += ws.spec32[j*seg+i]
			}
			acc *= complex(inv, 0)
			dst[i] = complex128(acc)
		}
		return dst
	}
	if ws.batcher != nil {
		ws.spec = ws.batcher.RFFTBatchInt16(ws.plan, ws.spec, sweeps, scale, s.window)
	} else {
		ws.spec = ws.plan.RFFTBatchInt16(ws.spec, sweeps, scale, s.window)
	}
	for j := range sweeps {
		bins := ws.spec[j*seg : j*seg+nb]
		for i := range dst {
			dst[i] += bins[i]
		}
	}
	inv := complex(1/float64(len(sweeps)), 0)
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// SynthesizeComplexFrameSlow generates one averaged complex frame
// through the full time-domain path (SweepsPerFrame sweeps of fresh
// noise).
func (s *Synthesizer) SynthesizeComplexFrameSlow(paths []Path, rng *rand.Rand) dsp.ComplexFrame {
	return s.SynthesizeComplexFrameSlowInto(nil, paths, rng, s.NewSweepScratch())
}

// SynthesizeComplexFrameSlowInto is SynthesizeComplexFrameSlow against
// caller-owned buffers (see ComplexFrameFromSweepsInto). The RNG draw
// order — sweep by sweep, each sweep's noise in sample order — is
// identical to the allocating entry point's, so the two are
// interchangeable bit for bit under a fixed seed.
func (s *Synthesizer) SynthesizeComplexFrameSlowInto(dst dsp.ComplexFrame, paths []Path, rng *rand.Rand, ws *SweepScratch) dsp.ComplexFrame {
	if len(ws.sweeps) != s.cfg.SweepsPerFrame {
		ws.sweeps = make([][]float64, s.cfg.SweepsPerFrame)
	}
	for i := range ws.sweeps {
		ws.sweeps[i] = s.SynthesizeSweepInto(ws.sweeps[i], paths, rng)
	}
	return s.ComplexFrameFromSweepsInto(dst, ws.sweeps, ws)
}

// kernelAt evaluates the window kernel at fractional-bin offset delta by
// linear interpolation of the precomputed table. Offsets beyond the
// table's support return 0.
func (s *Synthesizer) kernelAt(delta float64) complex128 {
	if delta < -s.kernelHalf || delta > s.kernelHalf {
		return 0
	}
	pos := (delta + s.kernelHalf) / s.kernelStep
	i := int(pos)
	if i >= len(s.kernel)-1 {
		return s.kernel[len(s.kernel)-1]
	}
	frac := complex(pos-float64(i), 0)
	return s.kernel[i]*(1-frac) + s.kernel[i+1]*frac
}

// PathSpectrum computes the deterministic (noise-free) signal part of an
// averaged complex frame directly in the frequency domain. A real tone
// A*cos(2*pi*f*t + phi) contributes (A/2)*exp(j*phi)*K(k - f/binHz) to
// bin k (the negative-frequency image falls outside the range bins for
// all targets beyond ~1.5 m and is neglected).
//
// dst is reused as the output when it has the right length (the
// pipeline's per-antenna workers pass their scratch frame to keep the
// hot path allocation-free); otherwise a fresh frame is allocated.
func (s *Synthesizer) PathSpectrum(paths []Path, dst dsp.ComplexFrame) dsp.ComplexFrame {
	nb := s.cfg.RangeBins()
	spec := dst
	if len(spec) != nb {
		spec = make(dsp.ComplexFrame, nb)
	} else {
		for k := range spec {
			spec[k] = 0
		}
	}
	for _, p := range paths {
		a := p.Amplitude() / 2
		center := s.cfg.BeatFreq(p.RoundTrip) / s.cfg.BinHz()
		lo := int(math.Ceil(center - s.kernelHalf))
		hi := int(math.Floor(center + s.kernelHalf))
		if lo < 0 {
			lo = 0
		}
		if hi > nb-1 {
			hi = nb - 1
		}
		rot := cmplx.Exp(complex(0, p.Phase))
		for k := lo; k <= hi; k++ {
			spec[k] += complex(a, 0) * rot * s.kernelAt(float64(k)-center)
		}
	}
	return spec
}

// NoiseFrame draws one frame's worth of averaged receiver noise into dst
// (reallocating only if the length is wrong) and returns it. Coherently
// averaging SweepsPerFrame sweeps leaves the signal term unchanged and
// divides the noise variance by the number of sweeps.
//
// The draw order — per bin, real then imaginary — is the RNG contract
// the streaming pipeline relies on: drawing all antennas' noise frames
// up front in antenna order consumes the generator exactly as the serial
// SynthesizeComplexFrame loop does, which is what keeps the concurrent
// pipeline bit-identical to the serial one.
func (s *Synthesizer) NoiseFrame(rng *rand.Rand, dst dsp.ComplexFrame) dsp.ComplexFrame {
	nb := s.cfg.RangeBins()
	if len(dst) != nb {
		dst = make(dsp.ComplexFrame, nb)
	}
	avgNoise := s.noisePerComp / math.Sqrt(float64(s.cfg.SweepsPerFrame))
	for k := range dst {
		dst[k] = complex(rng.NormFloat64()*avgNoise, rng.NormFloat64()*avgNoise)
	}
	return dst
}

// AddNoise adds a pre-drawn noise frame to a path spectrum in place —
// the same per-bin additions, in the same order, as the fused
// SynthesizeComplexFrame, so splitting synthesis across pipeline stages
// does not perturb a single bit of the output.
func AddNoise(spec, noise dsp.ComplexFrame) {
	for k := range spec {
		spec[k] += noise[k]
	}
}

// SynthesizeComplexFrame generates one averaged complex frame: the
// deterministic path spectrum plus per-bin complex Gaussian receiver
// noise. It is PathSpectrum + NoiseFrame + AddNoise fused (equivalence
// is property-tested in fmcw_test.go).
func (s *Synthesizer) SynthesizeComplexFrame(paths []Path, rng *rand.Rand) dsp.ComplexFrame {
	spec := s.PathSpectrum(paths, nil)
	avgNoise := s.noisePerComp / math.Sqrt(float64(s.cfg.SweepsPerFrame))
	for k := range spec {
		spec[k] += complex(rng.NormFloat64()*avgNoise, rng.NormFloat64()*avgNoise)
	}
	return spec
}

// SynthesizeFrame is SynthesizeComplexFrame followed by magnitude.
func (s *Synthesizer) SynthesizeFrame(paths []Path, rng *rand.Rand) dsp.Frame {
	return s.SynthesizeComplexFrame(paths, rng).Mag()
}

// NoiseBinSigma returns the per-component standard deviation of FFT-bin
// noise after frame averaging — the quantity detection thresholds should
// be calibrated against.
func (s *Synthesizer) NoiseBinSigma() float64 {
	return s.noisePerComp / math.Sqrt(float64(s.cfg.SweepsPerFrame))
}

// PeakMagnitude returns the frame magnitude a path of the given received
// power would produce at its exact bin (amplitude/2 times the window DC
// gain) — useful for SNR accounting in tests and threshold design.
func (s *Synthesizer) PeakMagnitude(powerWatts float64) float64 {
	return math.Sqrt(2*powerWatts) / 2 * s.winSum
}
