package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"witrack/internal/dsp"
	"witrack/internal/motion"
	"witrack/internal/scenario"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{n: 2000, wantPct: 99, wantVal: 1980},    // enough samples: capped at p99
		{n: 1000, wantPct: 99, wantVal: 990},     // exactly ten beyond p99
		{n: 500, wantPct: 98, wantVal: 490},      // p99 would leave 5 beyond
		{n: 11, wantPct: 100.0 / 11, wantVal: 1}, // the smallest sample that leaves ten
		{n: 200, wantPct: 95, wantVal: 190},
	} {
		got, err := tailPercentile(seq(tc.n), 99)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got.Samples != tc.n || math.Abs(got.Percentile-tc.wantPct) > 1e-9 || got.Value != tc.wantVal {
			t.Errorf("n=%d: got %+v, want p%.4g = %v over %d samples", tc.n, got, tc.wantPct, tc.wantVal, tc.n)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < tailSamples {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
	if _, err := tailPercentile(seq(10), 99); err == nil {
		t.Error("10 samples must not support a tail percentile")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, interval: 0.02, speed: 2}
	for i, want := range []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 5 * time.Second} {
		idx := []int{0, 1, 2, 500}[i]
		if got := s.due(idx).Sub(start); got != want {
			t.Errorf("frame %d due at +%v, want +%v", idx, got, want)
		}
	}
	if got := frameIndex(500*0.02, 0.02); got != 500 {
		t.Errorf("frameIndex = %d, want 500", got)
	}
	s = schedule{start: time.Now(), interval: 0.001, speed: 1}
	if late := s.waitFor(3); late < 0 || time.Since(s.due(3)) < 0 {
		t.Errorf("waitFor returned %v before frame 3 was due", late)
	}
}

func TestSendPlanNeverDeliversAFrameEarly(t *testing.T) {
	// Frames 1-2 and 4-6 each become decodable with one chunk.
	offsets := []int{10, 20, 20, 30, 45, 45, 45, 50}
	want := []int{10, 10, 20, 30, 30, 30, 45, 50}
	got := sendPlan(offsets)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan = %v, want %v", got, want)
		}
	}
	for i, sent := range got {
		// Everything frame i needs is sent by its due time ...
		if i+1 < len(offsets) && offsets[i+1] == offsets[i] {
			continue // ... unless it shares its chunk with its successor
		}
		if sent < offsets[i] {
			t.Errorf("frame %d: %d bytes sent by its due time, needs %d", i, sent, offsets[i])
		}
		// ... and nothing that completes a later frame.
		for j := i + 1; j < len(offsets); j++ {
			if sent >= offsets[j] {
				t.Errorf("frame %d decodable at frame %d's due time", j, i)
			}
		}
	}
}

func TestRebaseLagOntoSchedule(t *testing.T) {
	// At 1x the daemon's own lag already is the fix lag.
	if got := rebaseLagMS(7, 3.0, 1); got != 7 {
		t.Errorf("1x rebase = %v, want 7", got)
	}
	// At 2x, a frame at trace time 1 s is sent 0.5 s after the origin.
	// Emitted at origin + 0.6 s, the daemon reports (0.6 - 1) s = -400
	// ms; its lag behind the due time is 100 ms.
	if got := rebaseLagMS(-400, 1.0, 2); math.Abs(got-100) > 1e-9 {
		t.Errorf("2x rebase = %v, want 100", got)
	}
	// Frame 0 is due at the origin at any speed.
	if got := rebaseLagMS(12, 0, 4); got != 12 {
		t.Errorf("frame-0 rebase = %v, want 12", got)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"fps", "lag_p99_ms", "core.allocs_per_frame", "svc.gen-late", "A1"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "lag p99", "fps/s", "läg", "core:allocs", "x\n"} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	m := metricSet{}
	if err := m.put("fps", 1); err != nil {
		t.Fatal(err)
	}
	if m["fps"].Unit != "frames/s" {
		t.Errorf("fps unit %q", m["fps"].Unit)
	}
	if err := m.put("fps", 2); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate metric accepted: %v", err)
	}
	if err := m.put("bad name", 1); err == nil {
		t.Error("malformed metric name accepted")
	}
	if err := m.put("lag_p95_ms", 1); err == nil {
		t.Error("unpublished metric accepted")
	}
	if err := m.put("setup_s", math.NaN()); err == nil {
		t.Error("NaN metric accepted")
	}
}

func TestDigestCatchesPerturbedFix(t *testing.T) {
	ref := []fix{
		{T: 0, X: 0.1, Y: 3.2, Z: 1.0, Valid: true, Moving: true},
		{T: 0.0125, X: 0.2, Y: 3.3, Z: 1.1, Valid: true},
		{T: 0.025},
	}
	cp := func() []fix { return append([]fix(nil), ref...) }
	if err := sameFixes(cp(), ref); err != nil {
		t.Fatalf("identical fixes differ: %v", err)
	}
	perturb := []func(f []fix){
		func(f []fix) { f[1].Y = math.Nextafter(f[1].Y, 4) }, // one ulp
		func(f []fix) { f[0].Moving = false },
		func(f []fix) { f[2].Valid = true },
		func(f []fix) { f[2].Degraded = true },
		func(f []fix) { f[1].T += 1e-12 },
	}
	for i, p := range perturb {
		got := cp()
		p(got)
		if digest(got) == digest(ref) {
			t.Errorf("perturbation %d leaves the digest unchanged", i)
		}
		if err := sameFixes(got, ref); err == nil {
			t.Errorf("perturbation %d passes the fix check", i)
		}
	}
	if err := sameFixes(ref[:2], ref); err == nil {
		t.Error("a missing fix passes the fix check")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: covered once
		{Name: "c", Start: 25, End: 35, Parent: 2},
	}
	want := []int64{60, 20, 20, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// a and b run concurrently, so the self times sum to 110 ns over a
	// 100 ns window: fine on two processors, impossible on one.
	if err := checkSelfTime(spans, 100, 2); err != nil {
		t.Errorf("self time within wall × procs flagged: %v", err)
	}
	if err := checkSelfTime(spans, 100, 1); err == nil {
		t.Error("self time beyond wall × procs not flagged")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1)
	child := tr.begin("child", 7)
	tr.end(child)
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[child].Req != 7 || tr.spans[root].Parent != -1 {
		t.Errorf("spans %+v", tr.spans)
	}
	var none *tracer // the untraced twin records nothing
	none.end(none.begin("x", 0))
}

func TestRequireMetrics(t *testing.T) {
	m := metricSet{}
	for _, name := range endToEnd {
		m.put(name, 1)
	}
	if err := requireMetrics(m, false); err != nil {
		t.Errorf("complete end-to-end set rejected: %v", err)
	}
	if err := requireMetrics(m, true); err == nil {
		t.Error("end-to-end set accepted as the per-layer set")
	}
	delete(m, "fps")
	if err := requireMetrics(m, false); err == nil {
		t.Error("missing metric accepted")
	}
}

func TestUnpackSweepsInvertsPairPacking(t *testing.T) {
	const spf, ns = 2, 5 // odd sweep length: one pair straddles two sweeps
	var flat []float64
	for j := 0; j < spf; j++ {
		for i := 0; i < ns; i++ {
			flat = append(flat, float64(j*10+i))
		}
	}
	packed := make(dsp.ComplexFrame, len(flat)/2)
	for i := range packed {
		packed[i] = complex(flat[2*i], flat[2*i+1])
	}
	got := unpackSweeps(nil, []dsp.ComplexFrame{packed}, spf, ns)
	for j := 0; j < spf; j++ {
		for i := 0; i < ns; i++ {
			if got[0][j][i] != float64(j*10+i) {
				t.Fatalf("sweep %d sample %d = %v, want %v", j, i, got[0][j][i], j*10+i)
			}
		}
	}
}

// TestBenchmarkFileMatches checks BENCHMARK.json against the program:
// the same metric names in each mode, the same units, valid names.
func TestServedWalksNeverPause(t *testing.T) {
	for _, workload := range []string{"served-mixed", "served-int16"} {
		for seed := int64(1); seed <= 20; seed++ {
			specs, err := servedSpecs(workload, seed)
			if err != nil {
				t.Fatal(err)
			}
			a, b := specs[0].Bodies[0].Motion, specs[1].Bodies[0].Motion
			if a.Seed == b.Seed {
				t.Fatalf("%s seed %d: both sessions walk motion seed %d", workload, seed, a.Seed)
			}
			for _, ms := range []scenario.MotionSpec{a, b} {
				r := motion.Region{XMin: ms.Region.XMin, XMax: ms.Region.XMax, YMin: ms.Region.YMin, YMax: ms.Region.YMax}
				w := motion.NewRandomWalk(motion.DefaultWalkConfig(r, 1, ms.Duration, ms.Seed))
				for ms10 := 0; ms10 <= int(ms.Duration*100); ms10++ {
					if !w.At(float64(ms10) / 100).Moving {
						t.Fatalf("%s seed %d: motion seed %d pauses at %.2f s", workload, seed, ms.Seed, float64(ms10)/100)
					}
				}
			}
		}
	}
}

func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var file struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode string
		file []def
		prog []string
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("%s: file lists %d metrics, program %d", c.mode, len(c.file), len(c.prog))
			continue
		}
		for i, d := range c.file {
			if d.Name != c.prog[i] || d.Unit != units[d.Name] || !validMetricName(d.Name) {
				t.Errorf("%s[%d]: file has %s (%s), program %s (%s)", c.mode, i, d.Name, d.Unit, c.prog[i], units[c.prog[i]])
			}
		}
	}
	if len(units) != len(endToEnd)+len(perLayer) {
		t.Errorf("units has %d entries for %d metrics", len(units), len(endToEnd)+len(perLayer))
	}
}
