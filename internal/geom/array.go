package geom

import (
	"errors"
	"fmt"
	"math"
)

// Array describes a WiTrack antenna array: one transmit antenna plus at
// least three receive antennas, all with directional beams pointing
// toward +y (into the room). The paper's default is a "T": Tx at the
// crossing point, Rx1/Rx2 on the horizontal edges, Rx3 below the Tx.
type Array struct {
	Tx Vec3
	Rx []Vec3
	// BeamHalfAngle is the half-power half-angle of each directional
	// antenna, measured from +y. Reflections arriving from outside the
	// beam are strongly attenuated, and localization solutions outside
	// the beam are rejected (paper §5, Fig. 4).
	BeamHalfAngle float64
}

// MaxRx bounds the receive-antenna count. Real deployments run 3-4
// antennas; the bound exists so per-antenna health masks fit one uint64
// and so a count read from untrusted input (a trace header) cannot
// force a huge allocation.
const MaxRx = 64

// DefaultBeamHalfAngle approximates the WA5VJB directional antennas used
// by the prototype (roughly 60 degrees half-power beamwidth each side).
const DefaultBeamHalfAngle = math.Pi / 3

// NewTArray builds the paper's default T arrangement at the given mount
// height: Tx at (0, 0, height), two receive antennas at x = ±separation,
// and a third receive antenna `separation` below the Tx.
func NewTArray(separation, height float64) Array {
	return Array{
		Tx: Vec3{0, 0, height},
		Rx: []Vec3{
			{-separation, 0, height},
			{+separation, 0, height},
			{0, 0, height - separation},
		},
		BeamHalfAngle: DefaultBeamHalfAngle,
	}
}

// Validate checks the array is usable for 3D localization.
func (a Array) Validate() error {
	if len(a.Rx) < 3 {
		return fmt.Errorf("geom: need at least 3 receive antennas, have %d", len(a.Rx))
	}
	if len(a.Rx) > MaxRx {
		return fmt.Errorf("geom: at most %d receive antennas, have %d", MaxRx, len(a.Rx))
	}
	if a.BeamHalfAngle <= 0 || a.BeamHalfAngle > math.Pi {
		return errors.New("geom: beam half-angle out of range")
	}
	for i, rx := range a.Rx {
		if rx.Y != a.Tx.Y {
			return fmt.Errorf("geom: receive antenna %d not in the antenna plane", i)
		}
	}
	// Reject degenerate layouts: all antennas collinear cannot resolve 3D.
	base := a.Rx[0].Sub(a.Tx)
	collinear := true
	for _, rx := range a.Rx[1:] {
		if base.Cross(rx.Sub(a.Tx)).Norm() > 1e-9 {
			collinear = false
			break
		}
	}
	if collinear {
		return errors.New("geom: antennas are collinear; cannot resolve elevation")
	}
	return nil
}

// RoundTrip returns the true round-trip distance Tx -> p -> Rx[k].
// This is the quantity an FMCW TOF measurement estimates (paper Eq. 4).
func (a Array) RoundTrip(k int, p Vec3) float64 {
	return a.Tx.Dist(p) + a.Rx[k].Dist(p)
}

// RoundTrips returns the round-trip distance to every receive antenna.
func (a Array) RoundTrips(p Vec3) []float64 {
	out := make([]float64, len(a.Rx))
	for k := range a.Rx {
		out[k] = a.RoundTrip(k, p)
	}
	return out
}

// InBeam reports whether point p lies within the directional beam of the
// transmit antenna (and hence of the co-oriented receive antennas).
func (a Array) InBeam(p Vec3) bool {
	d := p.Sub(a.Tx)
	if d.Y <= 0 {
		return false
	}
	return d.AngleTo(Vec3{0, 1, 0}) <= a.BeamHalfAngle
}

// BeamGain returns the one-way antenna power gain from the transmit
// antenna toward p. See BeamGainFrom.
func (a Array) BeamGain(p Vec3) float64 {
	return BeamGainFrom(a.Tx, a.BeamHalfAngle, p)
}

// RxBeamGain returns the one-way antenna power gain from receive antenna
// k toward p (all antennas share orientation: boresight along +y).
func (a Array) RxBeamGain(k int, p Vec3) float64 {
	return BeamGainFrom(a.Rx[k], a.BeamHalfAngle, p)
}

// BeamGainFrom models a directional antenna at origin with boresight
// along +y: gain 1 at boresight, a cos^2 rolloff reaching -3 dB at the
// half-power angle halfAngle (the standard definition of beamwidth), and
// a -20 dB floor for side lobes. Points behind the antenna plane get
// zero gain.
func BeamGainFrom(origin Vec3, halfAngle float64, p Vec3) float64 {
	d := p.Sub(origin)
	if d.Y <= 0 {
		return 0
	}
	theta := d.AngleTo(Vec3{0, 1, 0})
	if theta >= math.Pi/2 || theta >= 2*halfAngle {
		return 0.01
	}
	// cos^2 taper calibrated so gain(halfAngle) = 0.5 (-3 dB).
	c := math.Cos(theta * (math.Pi / 4) / halfAngle)
	return math.Max(c*c, 0.01)
}
