package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"witrack/internal/body"
	"witrack/internal/dsp"
	"witrack/internal/fault"
	"witrack/internal/geom"
	"witrack/internal/motion"
	"witrack/internal/rf"
)

// fourRxConfig returns the default deployment with the §5 robustness
// extension: a fourth receive antenna above the Tx ("+" arrangement),
// so the array still spans 3D when any single antenna goes dark.
func fourRxConfig() Config {
	cfg := DefaultConfig()
	cfg.Array.Rx = append(append([]geom.Vec3(nil), cfg.Array.Rx...),
		geom.Vec3{X: 0, Y: 0, Z: 1.5 + 1.0})
	return cfg
}

// stuckSource delivers good frames for a while, then wedges inside Next
// until the test releases it — the failure mode the frame-deadline
// watchdog exists for.
type stuckSource struct {
	frames  int
	nRx     int
	bins    int
	n       int
	release chan struct{}
}

func (s *stuckSource) NumRx() int          { return s.nRx }
func (s *stuckSource) Recycle(*FrameBatch) {}
func (s *stuckSource) Next() *FrameBatch {
	if s.n >= s.frames {
		<-s.release
		return nil
	}
	b := &FrameBatch{Index: s.n, T: float64(s.n) * 0.0125}
	b.Frames = make([]dsp.ComplexFrame, s.nRx)
	for k := range b.Frames {
		b.Frames[k] = make(dsp.ComplexFrame, s.bins)
		for i := range b.Frames[k] {
			b.Frames[k][i] = complex(float64(1+k), float64(i%7)*0.1)
		}
	}
	s.n++
	return b
}

// TestWatchdogEndsStalledRun pins satellite behavior: a source that
// stops producing frames must end the run within the deadline with a
// descriptive RunError, not wedge the pipeline forever.
func TestWatchdogEndsStalledRun(t *testing.T) {
	cfg := DefaultConfig()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev.FrameDeadline = 50 * time.Millisecond
	src := &stuckSource{frames: 5, nRx: 3, bins: cfg.Radio.RangeBins(), release: make(chan struct{})}
	defer close(src.release)

	ch, err := dev.StreamFrom(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n := 0
	for range ch {
		n++
	}
	if n != 5 {
		t.Fatalf("got %d samples before the stall, want 5", n)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled run took %v to end", elapsed)
	}
	err = dev.RunError()
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("RunError = %v, want a descriptive stall error", err)
	}
}

// TestWatchdogCleanRunIsTransparent: arming the deadline on a healthy
// run must not perturb a single sample or report a phantom error.
func TestWatchdogCleanRunIsTransparent(t *testing.T) {
	run := func(deadline time.Duration) *RunResult {
		cfg := DefaultConfig()
		cfg.Seed = 17
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev.FrameDeadline = deadline
		walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), cfg.Subject.CenterHeight(), 4, 23))
		res := dev.Run(walk)
		if got := dev.RunError(); got != nil {
			t.Fatalf("clean run reported error: %v", got)
		}
		return res
	}
	plain := run(0)
	guarded := run(10 * time.Second)
	if plain.Frames != guarded.Frames {
		t.Fatalf("frame counts differ: %d vs %d", plain.Frames, guarded.Frames)
	}
	for i := range plain.Samples {
		if plain.Samples[i] != guarded.Samples[i] {
			t.Fatalf("sample %d differs under watchdog: %+v vs %+v", i, plain.Samples[i], guarded.Samples[i])
		}
	}
}

// chaosSchedule is a busy multi-mechanism schedule used by the
// determinism tests: overlapping windows of every kind.
func chaosSchedule() fault.Schedule {
	return fault.Schedule{
		Seed: 424242,
		Windows: []fault.Window{
			{Kind: fault.DropFrame, Start: 0, Prob: 0.05},
			{Kind: fault.Dark, Antenna: 1, Start: 120, End: 200},
			{Kind: fault.NaN, Antenna: 2, Start: 150, End: 260, Prob: 0.4},
			{Kind: fault.Spike, Antenna: -1, Start: 40, End: 320, Prob: 0.1},
			{Kind: fault.Stuck, Antenna: 0, Start: 200, End: 240, Prob: 0.5},
		},
	}
}

// TestFaultRunDeterministicAcrossWorkers is the chaos-reproducibility
// gate at the device level: the same schedule on the same seed produces
// bit-identical samples and identical fault stats at any pipeline
// worker count.
func TestFaultRunDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (*RunResult, fault.Stats) {
		cfg := fourRxConfig()
		cfg.Seed = 51
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev.Workers = workers
		if err := dev.InjectFaults(chaosSchedule()); err != nil {
			t.Fatal(err)
		}
		walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), cfg.Subject.CenterHeight(), 5, 37))
		return dev.Run(walk), dev.FaultStats()
	}
	serial, statsSerial := run(1)
	parallel, statsParallel := run(0)
	if serial.Frames != parallel.Frames {
		t.Fatalf("frame counts differ: %d vs %d", serial.Frames, parallel.Frames)
	}
	if statsSerial != statsParallel {
		t.Fatalf("fault stats differ across worker counts: %+v vs %+v", statsSerial, statsParallel)
	}
	if statsSerial.DroppedFrames == 0 || statsSerial.InjectedFrames() == 0 {
		t.Fatalf("chaos schedule injected nothing: %+v", statsSerial)
	}
	for i := range serial.Samples {
		if serial.Samples[i] != parallel.Samples[i] {
			t.Fatalf("sample %d differs across worker counts: %+v vs %+v", i, serial.Samples[i], parallel.Samples[i])
		}
	}
}

// fixFlags is the part of a single- or k-person sample the degradation
// tests judge.
type fixFlags struct {
	T               float64
	Valid, Degraded bool
}

// TestDarkAntennaDegradesGracefully: on a 4-Rx array, a permanently
// dark antenna must shrink the solve to the healthy three — fixes keep
// coming, flagged Degraded — instead of killing the track, for the
// single-person Device and the k-person MultiDevice alike.
func TestDarkAntennaDegradesGracefully(t *testing.T) {
	const outageStart = 400 // frames; 5 s at 80 fps
	schedule := fault.Schedule{Seed: 9, Windows: []fault.Window{
		{Kind: fault.Dark, Antenna: 3, Start: outageStart},
	}}
	cases := []struct {
		name string
		// minValid is the floor on the valid fraction of outage frames.
		minValid float64
		run      func(t *testing.T) ([]fixFlags, fault.Stats)
	}{
		{"one-person", 0.9, func(t *testing.T) ([]fixFlags, fault.Stats) {
			cfg := fourRxConfig()
			cfg.Seed = 61
			dev, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.InjectFaults(schedule); err != nil {
				t.Fatal(err)
			}
			walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), cfg.Subject.CenterHeight(), 10, 43))
			var fixes []fixFlags
			for _, s := range dev.Run(walk).Samples {
				fixes = append(fixes, fixFlags{s.T, s.Valid, s.Degraded})
			}
			return fixes, dev.FaultStats()
		}},
		// Walks that pause would drop every k-person fix while a body
		// stands still and hide the result, so these never pause.
		{"two-person", 0.85, func(t *testing.T) ([]fixFlags, fault.Stats) {
			cfg := fourRxConfig()
			cfg.Seed = 17
			cfg.Scene = rf.EmptyScene()
			subjectB := body.Panel(11, 5)[3]
			dev, err := NewMultiDevice(cfg, subjectB)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.InjectFaults(schedule); err != nil {
				t.Fatal(err)
			}
			walk := func(r motion.Region, height float64, seed int64) motion.Trajectory {
				wc := motion.DefaultWalkConfig(r, height, 10, seed)
				wc.PauseProb = 0
				return motion.NewRandomWalk(wc)
			}
			res := dev.Run(
				walk(motion.Region{XMin: -3, XMax: -0.8, YMin: 3, YMax: 4.5}, cfg.Subject.CenterHeight(), 18),
				walk(motion.Region{XMin: 0.8, XMax: 3, YMin: 5.8, YMax: 7.5}, subjectB.CenterHeight(), 19))
			var fixes []fixFlags
			for _, s := range res.Samples {
				fixes = append(fixes, fixFlags{s.T, s.Valid, s.Degraded})
			}
			return fixes, dev.FaultStats()
		}},
	}
	interval := DefaultConfig().Radio.FrameInterval()
	outageT := float64(outageStart+darkAfter) * interval
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fixes, stats := tc.run(t)
			preValid, preDegraded, preN := 0, 0, 0
			outValid, outDegraded, outN := 0, 0, 0
			for _, s := range fixes {
				switch {
				case s.T > 2 && s.T < float64(outageStart)*interval:
					preN++
					if s.Valid {
						preValid++
					}
					if s.Degraded {
						preDegraded++
					}
				case s.T > outageT+0.5:
					outN++
					if s.Valid {
						outValid++
					}
					if s.Valid && s.Degraded {
						outDegraded++
					}
				}
			}
			t.Logf("before the outage %d/%d valid, %d Degraded; during it %d/%d valid, %d Degraded",
				preValid, preN, preDegraded, outValid, outN, outDegraded)
			if preN == 0 || outN == 0 {
				t.Fatal("run too short to cover both phases")
			}
			if preDegraded != 0 {
				t.Fatalf("%d samples flagged Degraded before the outage", preDegraded)
			}
			if frac := float64(outValid) / float64(outN); frac < tc.minValid {
				t.Fatalf("only %.0f%% of outage samples valid; 4-Rx array should keep locating on 3", frac*100)
			}
			if outDegraded != outValid {
				t.Fatalf("%d/%d valid outage fixes flagged Degraded, want all", outDegraded, outValid)
			}
			if stats.DarkFrames == 0 {
				t.Fatalf("injector reported no dark frames: %+v", stats)
			}
		})
	}
}

// TestThreeRxOutageCoastsAndReacquires: a 3-Rx array cannot drop an
// antenna and still locate, so a transient dark window must blank the
// output for the outage (minus the coast allowance) and reacquire
// promptly once the antenna heals.
func TestThreeRxOutageCoastsAndReacquires(t *testing.T) {
	const start, end = 400, 480
	cfg := DefaultConfig()
	cfg.Seed = 67
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InjectFaults(fault.Schedule{Seed: 3, Windows: []fault.Window{
		{Kind: fault.Dark, Antenna: 2, Start: start, End: end},
	}}); err != nil {
		t.Fatal(err)
	}
	walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), cfg.Subject.CenterHeight(), 10, 47))
	res := dev.Run(walk)

	interval := cfg.Radio.FrameInterval()
	darkT0 := float64(start+darkAfter) * interval
	darkT1 := float64(end) * interval
	invalidDuringOutage, outageN := 0, 0
	var reacquiredAt float64 = -1
	for _, s := range res.Samples {
		if s.T >= darkT0 && s.T < darkT1 {
			outageN++
			if !s.Valid {
				invalidDuringOutage++
			}
		}
		if s.T >= darkT1 && s.Valid && reacquiredAt < 0 {
			reacquiredAt = s.T
		}
	}
	if outageN == 0 {
		t.Fatal("outage window empty")
	}
	if invalidDuringOutage == 0 {
		t.Fatal("3-Rx array kept producing fixes with a dark antenna")
	}
	if reacquiredAt < 0 {
		t.Fatal("track never reacquired after the outage")
	}
	if latency := reacquiredAt - darkT1; latency > 1.0 {
		t.Fatalf("reacquisition took %.2f s after the antenna healed", latency)
	}
}

// TestDropFrameFaultsThinTheStream: dropped batches vanish before the
// workers, the counters agree with the output length, and the surviving
// samples keep their original frame clock (gaps stay visible in T).
func TestDropFrameFaultsThinTheStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 71
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InjectFaults(fault.Schedule{Seed: 5, Windows: []fault.Window{
		{Kind: fault.DropFrame, Start: 0, Prob: 0.2},
	}}); err != nil {
		t.Fatal(err)
	}
	walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), cfg.Subject.CenterHeight(), 5, 53))
	res := dev.Run(walk)

	interval := cfg.Radio.FrameInterval()
	total := int(dev.FaultStats().DroppedFrames) + res.Frames
	if res.Frames >= total || res.Frames < total/2 {
		t.Fatalf("%d of %d frames survived a 20%% drop schedule", res.Frames, total)
	}
	for i := 1; i < len(res.Samples); i++ {
		dt := res.Samples[i].T - res.Samples[i-1].T
		if steps := dt / interval; steps < 0.99 {
			t.Fatalf("sample %d: frame clock went backwards (dt=%v)", i, dt)
		}
	}
}

// FuzzInjectorSchedule feeds arbitrary schedules through validation and
// a short tracked run: no schedule the validator accepts may panic the
// pipeline, and no byte pattern may panic the validator.
func FuzzInjectorSchedule(f *testing.F) {
	f.Add([]byte{2, 0, 1, 3, 128}, int64(1))
	f.Add([]byte{3, 255, 0, 0, 255, 5, 1, 2, 0, 9}, int64(7))
	f.Add([]byte{1, 0, 0, 0, 40, 2, 3, 1, 2, 0, 4, 2, 0, 0, 200}, int64(-3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var ws []fault.Window
		for i := 0; i+5 <= len(data) && len(ws) < 4; i += 5 {
			ws = append(ws, fault.Window{
				Kind:    fault.Kind(data[i] % 7),
				Antenna: int(data[i+1]%6) - 2,
				Start:   int(data[i+2]) * 2,
				End:     int(data[i+3]) * 2,
				Prob:    float64(data[i+4]) / 128, // may exceed 1: validator's job
			})
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		dev, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.InjectFaults(fault.Schedule{Seed: seed, Windows: ws}); err != nil {
			return // rejected schedules must error, not panic
		}
		walk := motion.NewRandomWalk(motion.DefaultWalkConfig(testRegion(), cfg.Subject.CenterHeight(), 1, seed))
		res := dev.Run(walk)
		if res == nil {
			t.Fatal("nil result")
		}
	})
}
