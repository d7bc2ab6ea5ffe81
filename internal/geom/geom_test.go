package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}
	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 4-10+18 {
		t.Fatalf("Dot = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Fatalf("Norm = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		w := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		c := v.Cross(w)
		if math.Abs(c.Dot(v)) > 1e-9 || math.Abs(c.Dot(w)) > 1e-9 {
			t.Fatalf("cross product not orthogonal: %v x %v = %v", v, w, c)
		}
	}
}

func TestUnitNormalizes(t *testing.T) {
	v := Vec3{3, -4, 12}
	if d := math.Abs(v.Unit().Norm() - 1); d > 1e-12 {
		t.Fatalf("unit norm off by %g", d)
	}
	if (Vec3{}).Unit() != (Vec3{}) {
		t.Fatal("zero vector should stay zero")
	}
}

func TestLerpEndpoints(t *testing.T) {
	v, w := Vec3{1, 1, 1}, Vec3{2, 3, 4}
	if v.Lerp(w, 0) != v || v.Lerp(w, 1) != w {
		t.Fatal("Lerp endpoints wrong")
	}
	mid := v.Lerp(w, 0.5)
	if mid != (Vec3{1.5, 2, 2.5}) {
		t.Fatalf("Lerp midpoint = %v", mid)
	}
}

func TestAngleTo(t *testing.T) {
	if d := math.Abs((Vec3{1, 0, 0}).AngleTo(Vec3{0, 1, 0}) - math.Pi/2); d > 1e-12 {
		t.Fatalf("right angle off by %g", d)
	}
	if (Vec3{2, 0, 0}).AngleTo(Vec3{5, 0, 0}) != 0 {
		t.Fatal("parallel vectors should have angle 0")
	}
	if d := math.Abs((Vec3{1, 0, 0}).AngleTo(Vec3{-1, 0, 0}) - math.Pi); d > 1e-12 {
		t.Fatalf("opposite vectors off by %g", d)
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 11.2, 37.9, 90, 180, 360} {
		if got := Deg(Rad(d)); math.Abs(got-d) > 1e-12 {
			t.Fatalf("Deg(Rad(%v)) = %v", d, got)
		}
	}
}

func TestNewTArrayLayout(t *testing.T) {
	a := NewTArray(1.0, 1.5)
	if err := a.Validate(); err != nil {
		t.Fatalf("default T array invalid: %v", err)
	}
	if a.Tx != (Vec3{0, 0, 1.5}) {
		t.Fatalf("Tx = %v", a.Tx)
	}
	if len(a.Rx) != 3 {
		t.Fatalf("want 3 Rx, got %d", len(a.Rx))
	}
	for k := range a.Rx {
		if d := a.Tx.Dist(a.Rx[k]); math.Abs(d-1.0) > 1e-12 {
			t.Fatalf("Rx%d separation = %v, want 1.0", k, d)
		}
	}
}

func TestValidateRejectsBadArrays(t *testing.T) {
	// A plane grid of MaxRx+1 receive antennas: valid in every respect
	// but the count.
	crowded := NewTArray(1, 1.5)
	crowded.Rx = nil
	for i := 0; i <= MaxRx; i++ {
		crowded.Rx = append(crowded.Rx, Vec3{X: float64(i%8) - 3.5, Z: 1.5 - float64(i/8)*0.1})
	}
	tests := []struct {
		name   string
		mutate func(a *Array)
	}{
		{"two antennas", func(a *Array) { a.Rx = a.Rx[:2] }},
		{"out of plane", func(a *Array) { a.Rx[2] = Vec3{0, 0.5, 1.5} }},
		{"collinear", func(a *Array) {
			*a = Array{
				Tx:            Vec3{0, 0, 1.5},
				Rx:            []Vec3{{-1, 0, 1.5}, {1, 0, 1.5}, {2, 0, 1.5}},
				BeamHalfAngle: DefaultBeamHalfAngle,
			}
		}},
		{"over MaxRx antennas", func(a *Array) { *a = crowded }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := NewTArray(1, 1.5)
			tt.mutate(&a)
			if a.Validate() == nil {
				t.Fatal("array should be rejected")
			}
		})
	}
	// The crowded grid minus one antenna is at the limit and valid.
	crowded.Rx = crowded.Rx[:MaxRx]
	if err := crowded.Validate(); err != nil {
		t.Fatalf("%d-antenna array rejected: %v", MaxRx, err)
	}
}

func TestRoundTripIsSumOfLegs(t *testing.T) {
	a := NewTArray(1, 1.5)
	p := Vec3{0.5, 4, 1.0}
	for k := range a.Rx {
		want := a.Tx.Dist(p) + a.Rx[k].Dist(p)
		if got := a.RoundTrip(k, p); got != want {
			t.Fatalf("RoundTrip(%d) = %v, want %v", k, got, want)
		}
	}
	rts := a.RoundTrips(p)
	if len(rts) != 3 {
		t.Fatalf("len = %d", len(rts))
	}
}

func TestInBeam(t *testing.T) {
	a := NewTArray(1, 1.5)
	if !a.InBeam(Vec3{0, 5, 1.5}) {
		t.Fatal("boresight point should be in beam")
	}
	if a.InBeam(Vec3{0, -5, 1.5}) {
		t.Fatal("point behind array should be out of beam")
	}
	if a.InBeam(Vec3{100, 0.1, 1.5}) {
		t.Fatal("extreme off-axis point should be out of beam")
	}
}

func TestBeamGainShape(t *testing.T) {
	a := NewTArray(1, 1.5)
	bore := a.BeamGain(Vec3{0, 5, 1.5})
	side := a.BeamGain(Vec3{3, 3, 1.5})
	back := a.BeamGain(Vec3{0, -5, 1.5})
	if bore < 0.99 {
		t.Fatalf("boresight gain = %v, want ~1", bore)
	}
	if side >= bore {
		t.Fatalf("off-axis gain %v should be below boresight %v", side, bore)
	}
	if back != 0 {
		t.Fatalf("behind-array gain = %v, want 0", back)
	}
}

func TestEllipsoid(t *testing.T) {
	e := Ellipsoid{F1: Vec3{-1, 0, 0}, F2: Vec3{1, 0, 0}, MajorSum: 4}
	if !e.Valid() {
		t.Fatal("ellipsoid should be valid")
	}
	// Point on the surface: vertex at (2, 0, 0): |(3,0,0)| + |(1,0,0)| = 4.
	if v := e.Eval(Vec3{2, 0, 0}); math.Abs(v) > 1e-12 {
		t.Fatalf("surface point eval = %v", v)
	}
	if e.Eval(Vec3{0, 0, 0}) >= 0 {
		t.Fatal("center should be inside (negative)")
	}
	if e.Eval(Vec3{10, 0, 0}) <= 0 {
		t.Fatal("far point should be outside (positive)")
	}
	if e.SemiMajor() != 2 {
		t.Fatalf("semi-major = %v", e.SemiMajor())
	}
	want := math.Sqrt(4 - 1)
	if math.Abs(e.SemiMinor()-want) > 1e-12 {
		t.Fatalf("semi-minor = %v, want %v", e.SemiMinor(), want)
	}
	if e.Center() != (Vec3{0, 0, 0}) {
		t.Fatalf("center = %v", e.Center())
	}
	deg := Ellipsoid{F1: Vec3{-1, 0, 0}, F2: Vec3{1, 0, 0}, MajorSum: 1}
	if deg.Valid() || deg.SemiMinor() != 0 {
		t.Fatal("degenerate ellipsoid should be invalid with zero semi-minor")
	}
}

// TestSemiMinorShrinksWithSeparation checks the paper's §9.3 geometric
// argument: for a fixed round-trip distance, increasing the focal
// separation squashes the ellipsoid.
func TestSemiMinorShrinksWithSeparation(t *testing.T) {
	prev := math.Inf(1)
	for _, sep := range []float64{0.25, 0.5, 1.0, 1.5, 2.0} {
		e := Ellipsoid{F1: Vec3{}, F2: Vec3{sep, 0, 0}, MajorSum: 8}
		if b := e.SemiMinor(); b < prev {
			prev = b
		} else {
			t.Fatalf("semi-minor did not shrink at separation %v", sep)
		}
	}
}

func TestLocateExactRecovery(t *testing.T) {
	a := NewTArray(1, 1.5)
	targets := []Vec3{
		{0, 4, 1.5},
		{1.5, 3, 1.0},
		{-2, 6, 0.5},
		{0.3, 9, 2.0},
		{2.5, 3.5, 1.8},
	}
	for _, want := range targets {
		r := a.RoundTrips(want)
		got, err := Locate(a, r)
		if err != nil {
			t.Fatalf("Locate(%v): %v", want, err)
		}
		if d := got.Dist(want); d > 1e-6 {
			t.Fatalf("Locate(%v) = %v, error %g m", want, got, d)
		}
	}
}

// Property test: for random in-beam targets, localization from exact
// round-trip distances recovers the target to sub-millimeter accuracy.
func TestLocateRecoveryProperty(t *testing.T) {
	a := NewTArray(1, 1.5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		want := Vec3{
			X: rng.Float64()*6 - 3,
			Y: 2 + rng.Float64()*8,
			Z: 0.2 + rng.Float64()*2,
		}
		got, err := Locate(a, a.RoundTrips(want))
		if err != nil {
			return false
		}
		return got.Dist(want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLocateWithNoiseStaysClose(t *testing.T) {
	a := NewTArray(1, 1.5)
	rng := rand.New(rand.NewSource(99))
	want := Vec3{1, 5, 1.2}
	r := a.RoundTrips(want)
	for i := range r {
		r[i] += rng.NormFloat64() * 0.02 // 2 cm TOF noise
	}
	got, err := Locate(a, r)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Dist(want); d > 0.5 {
		t.Fatalf("noisy Locate error %g m is implausibly large", d)
	}
}

func TestLocateOverConstrained(t *testing.T) {
	// 4 receive antennas: extra constraint should not break recovery and
	// should reduce error under noise (checked statistically).
	a := Array{
		Tx: Vec3{0, 0, 1.5},
		Rx: []Vec3{
			{-1, 0, 1.5}, {1, 0, 1.5}, {0, 0, 0.5}, {0, 0, 2.5},
		},
		BeamHalfAngle: DefaultBeamHalfAngle,
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	want := Vec3{0.7, 4.2, 1.1}
	got, err := Locate(a, a.RoundTrips(want))
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Dist(want); d > 1e-6 {
		t.Fatalf("over-constrained exact recovery error %g", d)
	}

	rng := rand.New(rand.NewSource(5))
	noisy := func(arr Array) float64 {
		sum := 0.0
		const trials = 200
		for i := 0; i < trials; i++ {
			r := arr.RoundTrips(want)
			for k := range r {
				r[k] += rng.NormFloat64() * 0.03
			}
			p, err := Locate(arr, r)
			if err != nil {
				continue
			}
			sum += p.Dist(want)
		}
		return sum / trials
	}
	three := NewTArray(1, 1.5)
	if e4, e3 := noisy(a), noisy(three); e4 > e3*1.1 {
		t.Fatalf("4-antenna error %g should not exceed 3-antenna error %g", e4, e3)
	}
}

func TestLocateErrors(t *testing.T) {
	a := NewTArray(1, 1.5)
	if _, err := Locate(a, []float64{5, 5}); err != ErrTooFewMeasurements {
		t.Fatalf("err = %v", err)
	}
	if _, err := Locate(a, []float64{0.1, 5, 5}); err != ErrInfeasible {
		t.Fatalf("err = %v, want infeasible (round trip below focal distance)", err)
	}
}

func TestResidualRMS(t *testing.T) {
	a := NewTArray(1, 1.5)
	p := Vec3{0, 4, 1.5}
	r := a.RoundTrips(p)
	if rms := ResidualRMS(a, r, p); rms > 1e-12 {
		t.Fatalf("exact point should have ~0 residual, got %g", rms)
	}
	r[0] += 0.3
	if rms := ResidualRMS(a, r, p); rms < 0.1 {
		t.Fatalf("perturbed residual %g too small", rms)
	}
}

// TestLocateXYAsymmetry verifies the paper's §9.1 observation: with all
// antennas along the x axis, the same TOF noise produces larger x error
// than y error.
func TestLocateXYAsymmetry(t *testing.T) {
	a := NewTArray(1, 1.5)
	rng := rand.New(rand.NewSource(21))
	want := Vec3{0, 5, 1.5}
	var sumX, sumY float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		r := a.RoundTrips(want)
		for k := range r {
			r[k] += rng.NormFloat64() * 0.04
		}
		p, err := Locate(a, r)
		if err != nil {
			continue
		}
		sumX += math.Abs(p.X - want.X)
		sumY += math.Abs(p.Y - want.Y)
	}
	if sumX <= sumY {
		t.Fatalf("expected x error (%g) > y error (%g) for T geometry", sumX/trials, sumY/trials)
	}
}

func BenchmarkLocate(b *testing.B) {
	a := NewTArray(1, 1.5)
	r := a.RoundTrips(Vec3{1, 5, 1.2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Locate(a, r); err != nil {
			b.Fatal(err)
		}
	}
}
