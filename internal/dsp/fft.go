// Package dsp provides the signal-processing primitives the WiTrack
// pipeline needs: a planned FFT (the Go standard library has none),
// window functions, spectrogram construction, local-maximum peak
// detection, and order statistics. Everything is implemented from
// scratch on the standard library only.
package dsp

import (
	"math"
	"math/bits"
)

// FFT computes the in-place decimation-in-time radix-2 fast Fourier
// transform of x. The length of x must be a power of two (use NextPow2 /
// ZeroPad to arrange that, which is standard practice for FMCW sweep
// processing). The transform is unnormalized: IFFT(FFT(x)) == len(x)*x
// before the 1/N scaling applied by IFFT.
//
// FFT is a thin wrapper over the shared plan cache (see Plan / PlanFor):
// the butterflies read exact precomputed twiddle tables instead of the
// old numerically drifting w *= wBase recurrence. Repeated-transform
// callers should hold a Plan directly and call Transform to skip the
// cache lookup.
func FFT(x []complex128) {
	if len(x) == 0 {
		return
	}
	PlanFor(len(x)).Transform(x)
}

// IFFT computes the inverse FFT in place, including the 1/N scaling.
func IFFT(x []complex128) {
	if len(x) == 0 {
		return
	}
	PlanFor(len(x)).Inverse(x)
}

// DFT computes the discrete Fourier transform naively in O(n^2). It
// exists as a correctness oracle for FFT in tests and works for any
// length. The twiddles are read from a table indexed (k*t) mod n, which
// keeps every evaluated angle inside [0, 2*pi) — more accurate than
// evaluating the exponential at angles that grow with k*t, so the oracle
// stays meaningful at the tight tolerances the planned FFT achieves.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	w := make([]complex128, n)
	for j := range w {
		sn, cs := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(cs, sn)
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			sum += x[t] * w[(k*t)%n]
		}
		out[k] = sum
	}
	return out
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// ZeroPad returns x zero-padded (or truncated) to length n.
func ZeroPad(x []complex128, n int) []complex128 {
	out := make([]complex128, n)
	copy(out, x)
	return out
}
