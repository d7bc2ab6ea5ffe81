package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"witrack/internal/core"
	"witrack/internal/dsp"
	"witrack/internal/motion"
	"witrack/internal/scenario"
	"witrack/internal/svc"
	"witrack/internal/trace"
)

// served-mixed sizes: two sessions of the compact sweep cell (50
// frames/s of signal), paced at servedSpeed× real time so the daemon
// is about half busy, and servedCapturePasses timed capture passes per
// round, each encoding every frame of both traces.
//
// capture_fps is the servedCapturePct-th percentile of the passes'
// rates, not their median. Every pass encodes the same records from a
// collected heap, so passes differ only in how fast the host ran them,
// and a small shared host slows by up to 1.7x for whole rounds at a
// time, in some runs for most of the run: the median then follows the
// host, while the faster passes still show the encoder.
const (
	servedWalkS         = 5.0 // 251 frames per session
	servedSpeed         = 2.0 // 100 frames/s per session, 200 aggregate
	servedCapturePasses = 3
	servedCapturePct    = 90
)

// servedTrace is one session's input: its spec, trace bytes, how much
// of the trace is sent by each frame's due time (see sendPlan), the
// decoded records (for capture passes), and the offline reference.
type servedTrace struct {
	spec     scenario.Spec
	data     []byte
	header   trace.Header
	plan     []int
	interval float64
	records  *simInputs
	want     *scenario.ReplayResult
	fixes    []fix
}

// servedSpecs derives the two sessions' specs from the seed, with
// distinct simulation and motion seeds so the sessions share an FFT plan
// but no data. served-mixed pairs the int16 and float64 variants of
// scenario.SweepCell; served-int16 runs two int16 sessions, the same
// daemon path without the float64 sweep decode.
func servedSpecs(workload string, seed int64) ([]scenario.Spec, error) {
	a, b := scenario.SweepCellInt16(), scenario.SweepCell()
	if workload == "served-int16" {
		b = scenario.SweepCellInt16()
	}
	for i, sp := range []*scenario.Spec{&a, &b} {
		ms := &sp.Bodies[0].Motion
		sp.Seed = 2*seed + int64(i)
		ms.Duration = servedWalkS
		var err error
		if ms.Seed, err = walkSeed(*ms, 1000+walkSeedTries*(2*seed+int64(i))); err != nil {
			return nil, err
		}
	}
	return []scenario.Spec{a, b}, nil
}

// walkSeedTries bounds walkSeed's search; about half of all 5 s walks
// never pause, so the search ends within a few tries.
const walkSeedTries = 64

// walkSeed returns the first motion seed from base up on whose walk
// the body never pauses. A paused stretch compresses far better than a
// walking one (a still body's sweeps differ from the last frame's only
// by noise), so with pauses left to the seed the trace's size, and the
// rate a capture encodes it at, would vary by up to 2x between seeds.
func walkSeed(ms scenario.MotionSpec, base int64) (int64, error) {
	if ms.Region == nil {
		return 0, fmt.Errorf("walk has no region")
	}
	r := motion.Region{XMin: ms.Region.XMin, XMax: ms.Region.XMax, YMin: ms.Region.YMin, YMax: ms.Region.YMax}
	// A pause lasts at least 1 s, so sampling every 20 ms finds each.
	const step = 0.02
	for seed := base; seed < base+walkSeedTries; seed++ {
		// The body's height does not decide where the walk pauses.
		w := motion.NewRandomWalk(motion.DefaultWalkConfig(r, 1, ms.Duration, seed))
		moving := true
		for t := 0.0; t <= ms.Duration && moving; t += step {
			moving = w.At(t).Moving
		}
		if moving {
			return seed, nil
		}
	}
	return 0, fmt.Errorf("no walk without a pause among motion seeds %d..%d", base, base+walkSeedTries-1)
}

// genServedTrace records a spec's sweep trace in memory and indexes it.
func genServedTrace(sp scenario.Spec) (*servedTrace, error) {
	var buf bytes.Buffer
	if _, _, err := scenario.RecordCellSweeps(&sp, 0, &buf); err != nil {
		return nil, err
	}
	st := &servedTrace{spec: sp, data: buf.Bytes()}
	offsets, records, err := indexTrace(st.data)
	if err != nil {
		return nil, err
	}
	st.plan, st.records = sendPlan(offsets), records
	st.header = st.records.header
	st.interval = st.header.Interval
	return st, nil
}

// countingReader counts the bytes a decoder has consumed. It is an
// io.ByteReader, so the gzip layer reads through it byte by byte instead
// of buffering ahead, and the count after a frame decodes is exactly the
// prefix a receiver needs to decode that frame.
type countingReader struct {
	b []byte
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.n >= len(c.b) {
		return 0, io.EOF
	}
	k := copy(p, c.b[c.n:])
	c.n += k
	return k, nil
}

func (c *countingReader) ReadByte() (byte, error) {
	if c.n >= len(c.b) {
		return 0, io.EOF
	}
	c.n++
	return c.b[c.n-1], nil
}

// indexTrace decodes a trace once, returning each frame's decodable byte
// offset and the decoded records.
func indexTrace(data []byte) ([]int, *simInputs, error) {
	cr := &countingReader{b: data}
	tr, err := trace.NewReader(cr)
	if err != nil {
		return nil, nil, err
	}
	in := &simInputs{header: tr.Header()}
	var offsets []int
	for {
		var truths []motion.BodyState
		if in.header.Sample == trace.SampleInt16 {
			var codes [][]int16
			codes, truths, err = tr.ReadFrameInt16Into(nil, nil)
			if err == nil {
				in.codes = append(in.codes, codes)
			}
		} else {
			var frames []dsp.ComplexFrame
			frames, truths, err = tr.ReadFrameTruthsInto(nil, nil)
			if err == nil {
				in.spectra = append(in.spectra, frames)
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if len(truths) > 0 {
			in.truths = append(in.truths, truths[0])
		}
		offsets = append(offsets, cr.n)
	}
	in.frames = len(offsets)
	in.sz.capture = in.frames
	return offsets, in, nil
}

// daemon is a running witrack-svc child process.
type daemon struct {
	cmd    *exec.Cmd
	client *svc.Client
	ingest string
}

// startDaemon launches witrack-svc on loopback ports chosen by the
// kernel and waits until /healthz answers.
func startDaemon(bin string, pool int) (*daemon, error) {
	cmd := exec.Command(bin, "-ingest", "127.0.0.1:0", "-mgmt", "127.0.0.1:0", "-pool", fmt.Sprint(pool))
	cmd.Stderr = os.Stderr
	// Should this process die without stopping the daemon, the kernel
	// kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd}
	// The daemon's first line names both listeners:
	// "witrack-svc: ingest on A, management on http://B".
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("reading daemon banner: %w", err)
	}
	_, mgmt, ok := strings.Cut(strings.TrimSpace(line), "management on ")
	if !ok {
		d.stop()
		return nil, fmt.Errorf("unexpected daemon banner %q", line)
	}
	go io.Copy(io.Discard, out) // keep the pipe drained until exit
	d.client = &svc.Client{Mgmt: mgmt, HTTP: &http.Client{Timeout: 10 * time.Second}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.HTTP.Get(mgmt + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not answer /healthz within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	info, err := d.client.Info()
	if err != nil {
		d.stop()
		return nil, err
	}
	d.ingest = info.IngestAddr
	return d, nil
}

// stop shuts the daemon down (SIGTERM, then SIGKILL after 10 s) and
// returns its peak RSS in MB.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// hello is the ingest plane's session preamble: "WTSVC" + version 1, a
// big-endian u16 id length, the id.
func hello(id string) []byte {
	b := append([]byte("WTSVC\x01"), 0, 0)
	binary.BigEndian.PutUint16(b[6:], uint16(len(id)))
	return append(b, id...)
}

// ingestResult is one session's outcome as the generator saw it.
type ingestResult struct {
	sum    *svc.CloseSummary
	lateMS []float64 // generator lateness per frame (paced only)
	err    error
}

// ingest streams one trace to a session. With speed 0 the bytes go out
// unpaced; otherwise the trace goes out on its send plan, each frame's
// share written when that frame is due. The schedule's origin is the
// moment the hello is written, which is when the daemon starts the
// session's lag clock.
func ingest(addr, id string, st *servedTrace, speed float64) ingestResult {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return ingestResult{err: err}
	}
	defer conn.Close()
	var res ingestResult
	sched := schedule{start: time.Now(), interval: st.interval, speed: speed}
	if _, err := conn.Write(hello(id)); err != nil {
		return ingestResult{err: err}
	}
	if speed == 0 {
		_, err = conn.Write(st.data)
	} else {
		sent := 0
		for i, off := range st.plan {
			late := sched.waitFor(i)
			res.lateMS = append(res.lateMS, float64(late)/1e6)
			if off > sent {
				if _, err = conn.Write(st.data[sent:off]); err != nil {
					break
				}
				sent = off
			}
		}
		if err == nil {
			_, err = conn.Write(st.data[sent:])
		}
	}
	if err != nil {
		return ingestResult{err: fmt.Errorf("ingest write: %w", err)}
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	var sum svc.CloseSummary
	if err := json.NewDecoder(conn).Decode(&sum); err != nil {
		return ingestResult{err: fmt.Errorf("reading close summary: %w", err)}
	}
	res.sum = &sum
	return res
}

// serveAll runs one session per trace concurrently and returns their
// results in trace order. speed 0 streams unpaced.
func serveAll(d *daemon, traces []*servedTrace, speed float64) ([]ingestResult, error) {
	ids := make([]string, len(traces))
	for i, st := range traces {
		stats, err := d.client.CreateSession(svc.CreateRequest{Name: st.spec.Name})
		if err != nil {
			return nil, fmt.Errorf("creating session: %w", err)
		}
		ids[i] = stats.ID
	}
	out := make([]ingestResult, len(traces))
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = ingest(d.ingest, ids[i], traces[i], speed)
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		d.client.DeleteSession(id) // finished sessions only free their slot
	}
	return out, nil
}

// sameResult compares a served replay result with the offline one, the
// metrics by their bits.
func sameResult(got, want *scenario.ReplayResult) error {
	if got == nil {
		return fmt.Errorf("no result")
	}
	if got.Name != want.Name || got.Device != want.Device || got.Frames != want.Frames || got.Skips != want.Skips {
		return fmt.Errorf("result identity %s/%d/%d frames/%d skips, offline %s/%d/%d/%d",
			got.Name, got.Device, got.Frames, got.Skips, want.Name, want.Device, want.Frames, want.Skips)
	}
	if len(got.Metrics) != len(want.Metrics) {
		return fmt.Errorf("%d metrics, offline has %d", len(got.Metrics), len(want.Metrics))
	}
	for k, v := range want.Metrics {
		if g, ok := got.Metrics[k]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			return fmt.Errorf("metric %s: served %v, offline %v", k, g, v)
		}
	}
	return nil
}

// checkServed counts each session of a phase as one operation: it must
// close OK with a result equal to the offline replay of the same bytes.
func (b *bench) checkServed(phase string, traces []*servedTrace, res []ingestResult, failed *int) {
	for i, r := range res {
		err := r.err
		if err == nil && !r.sum.OK {
			err = fmt.Errorf("session failed: %s", r.sum.Error)
		}
		if err == nil {
			err = sameResult(r.sum.Result, traces[i].want)
		}
		if err != nil {
			*failed++
		}
		b.check(fmt.Sprintf("%s session %s: served result equals offline replay", phase, traces[i].spec.Name), err)
	}
}

// offlineReplay is scenario.ReplayTraceOpts over the same bytes, with
// its per-frame fixes.
func offlineReplay(data []byte, batch *core.BatchClient) (*scenario.ReplayResult, []fix, error) {
	var fixes []fix
	res, err := scenario.ReplayTraceOpts(context.Background(), bytes.NewReader(data), scenario.ReplayOptions{
		Batch:   batch,
		Observe: func(f scenario.ReplayFix) { fixes = append(fixes, fixFromReplay(f)) },
	})
	return res, fixes, err
}

// servedSetup is one served-mixed setup: start the daemon, generate and
// index both traces, and warm the daemon with one unpaced session.
func servedSetup(opts options) (*daemon, []*servedTrace, error) {
	d, err := startDaemon(opts.svcBin, runtime.NumCPU())
	if err != nil {
		return nil, nil, err
	}
	var traces []*servedTrace
	specs, err := servedSpecs(opts.workload, opts.seed)
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	for _, sp := range specs {
		st, err := genServedTrace(sp)
		if err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("generating %s: %w", sp.Name, err)
		}
		traces = append(traces, st)
	}
	res, err := serveAll(d, traces[:1], 0)
	if err == nil {
		err = res[0].err
		if err == nil && !res[0].sum.OK {
			err = errors.New(res[0].sum.Error)
		}
	}
	if err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("warm-up session: %w", err)
	}
	return d, traces, nil
}

// runServed is the served-mixed workload: a witrack-svc child with one
// pool slot per CPU serves two concurrent sessions (int16 and float64
// sweep traces of the compact sweep cell). Each round runs a paced phase
// (open loop, frame i sent when due), a flat-out phase (both traces
// unpaced) and capture passes over both traces' records.
func runServed(b *bench) error {
	if b.opts.svcBin == "" {
		return fmt.Errorf("served-mixed needs -svc")
	}
	var setupTimes []float64
	var d *daemon
	var traces []*servedTrace
	for i := 0; i < setupMinReps; i++ {
		start := time.Now()
		nd, nt, err := servedSetup(b.opts)
		if err != nil {
			if d != nil {
				d.stop()
			}
			return fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if d != nil {
			d.stop()
		}
		d, traces = nd, nt
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	if err := b.e2e.put("setup_s", median(setupTimes)); err != nil {
		return err
	}
	totalFrames, totalBytes := 0, 0
	for i, st := range traces {
		res, fixes, err := offlineReplay(st.data, nil)
		if err != nil {
			return fmt.Errorf("offline reference %s: %w", st.spec.Name, err)
		}
		st.want, st.fixes = res, fixes
		totalFrames += len(st.plan)
		totalBytes += len(st.data)
		b.note(fmt.Sprintf("reference_digest.%d.%s", i, st.spec.Name), digest(fixes))
	}

	var fps, capRates, ingestMBps, lagMS, lateMS, firstFix []float64
	var submitted, coalesced int64
	var allocs []float64
	failedSessions := 0
	firsts := make([][]byte, len(traces))
	start := time.Now()
	for round := 0; b.another(start, round); round++ {
		res, err := serveAll(d, traces, servedSpeed)
		if err != nil {
			return err
		}
		b.checkServed("paced", traces, res, &failedSessions)
		for i, r := range res {
			if r.sum == nil || r.sum.Timing == nil {
				continue
			}
			lateMS = append(lateMS, r.lateMS...)
			for j, l := range r.sum.Timing.LagMS {
				lag := rebaseLagMS(l, float64(j)*traces[i].interval, servedSpeed)
				lagMS = append(lagMS, lag)
				if j == 0 {
					firstFix = append(firstFix, lag)
				}
			}
			submitted += r.sum.Timing.BatchSubmitted
			coalesced += r.sum.Timing.BatchCoalesced
		}

		t0 := time.Now()
		res, err = serveAll(d, traces, 0)
		if err != nil {
			return err
		}
		el := time.Since(t0).Seconds()
		fps = append(fps, float64(totalFrames)/el)
		ingestMBps = append(ingestMBps, float64(totalBytes)/1e6/el)
		b.checkServed("flat-out", traces, res, &failedSessions)
		for _, r := range res {
			if r.sum != nil && r.sum.Timing != nil {
				allocs = append(allocs, r.sum.Timing.AllocsPerFrame)
				submitted += r.sum.Timing.BatchSubmitted
				coalesced += r.sum.Timing.BatchCoalesced
			}
		}

		// The first pass after the daemon phases runs up to a quarter
		// slower (cold caches, a CPU left idle while pacing), so it
		// warms up and is not timed.
		for _, st := range traces {
			st.records.capture(nil, st.records.frames)
		}
		for p := 0; p < servedCapturePasses; p++ {
			captured, took := 0, time.Duration(0)
			for i, st := range traces {
				n := st.records.frames
				data, el, err := st.records.timedCapture(n)
				took += el
				if err == nil {
					err = st.records.verifyCapture(data, firsts[i], n)
					if firsts[i] == nil {
						firsts[i] = bytes.Clone(data)
					}
				}
				b.check("capture pass "+st.spec.Name, err)
				captured += n
			}
			capRates = append(capRates, float64(captured)/took.Seconds())
		}
	}
	rss := d.stop()
	stopped = true

	b.note("passes", map[string]any{"rounds": len(fps), "frames_per_round": totalFrames,
		"fps": fps, "capture": capRates, "frames_per_capture": totalFrames, "capture_fps_percentile": servedCapturePct})
	if err := firstErr(
		b.e2e.put("fps", median(fps)),
		b.e2e.put("capture_fps", percentile(capRates, servedCapturePct)),
		b.putLag(lagMS, lateMS, servedSpeed, servedSpeed/traces[0].interval*float64(len(traces))),
		b.e2e.put("peak_rss_mb", rss),
	); err != nil {
		return err
	}
	if !b.opts.trace {
		return nil
	}
	late, _ := tailPercentile(lateMS, 99)
	coalescedFrac := 0.0
	if submitted > 0 {
		coalescedFrac = float64(coalesced) / float64(submitted)
	}
	if err := firstErr(
		b.putLayer("svc.first_fix_ms", mean(firstFix), fmt.Sprintf("measured: mean re-based lag of each paced session's first fix (%d sessions)", len(firstFix))),
		b.putLayer("svc.ingest_mb_per_s", median(ingestMBps), "measured: trace bytes over wall time of the flat-out phase, median of rounds"),
		b.putLayer("svc.gen_late_p99_ms", late.Value, fmt.Sprintf("measured: generator lateness at p%.3g of %d frames", late.Percentile, late.Samples)),
		b.putLayer("svc.sessions_failed", float64(failedSessions), "counted: sessions that failed, were shed, or disagreed with the offline replay"),
		b.putLayer("core.batch_coalesced_frac", coalescedFrac, fmt.Sprintf("counted: %d of %d submitted transforms coalesced (close summaries)", coalesced, submitted)),
		b.putLayer("core.allocs_per_frame", mean(allocs), "measured by the daemon: heap allocations per frame in the flat-out close summaries, mean"),
		b.putLayer("fmcw.spectral_synth_us", 0, "bypassed (0): served sessions replay sweep traces; the fast path never runs"),
	); err != nil {
		return err
	}
	return traceServed(b, traces)
}

// traceServed is a served workload's in-process traced run: compile
// cost per spec, the batching scheduler's overhead on an offline replay,
// GC share and decode allocations of offline replays, source occupancy
// of the first trace's replay, and per session the recording device's
// Record and the serial replica — Reader decode, fmcw frame transform,
// Tracker.Push, Locator.Solve — whose fixes must equal the offline
// replay's.
func traceServed(b *bench, traces []*servedTrace) error {
	var compileMS []float64
	for _, st := range traces {
		t0 := time.Now()
		c, err := scenario.Compile(&st.spec, 0)
		if err != nil {
			return err
		}
		dev, err := core.NewDevice(c.Config)
		if err != nil {
			return err
		}
		if c.CalibrateFrames > 0 {
			dev.CalibrateBackground(c.CalibrateFrames)
		}
		compileMS = append(compileMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}

	// Batch overhead: the int16 trace replayed offline with and without a
	// (lone) BatchClient, alternating, medians of three each.
	st := traces[0]
	var with, without []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		_, fixes, err := offlineReplay(st.data, nil)
		without = append(without, time.Since(t0).Seconds())
		b.check("offline replay without batching equals reference", firstErr(err, sameFixes(fixes, st.fixes)))
		t0 = time.Now()
		_, fixes, err = offlineReplay(st.data, core.NewBatchScheduler(0, 0).NewClient())
		with = append(with, time.Since(t0).Seconds())
		b.check("offline replay with batching equals reference", firstErr(err, sameFixes(fixes, st.fixes)))
	}
	overheadUS := (median(with) - median(without)) * 1e6 / float64(len(st.plan))

	frames := 0
	for _, st := range traces {
		frames += len(st.plan)
	}
	_, gcFrac := allocsAndGC(frames, func() {
		for _, st := range traces {
			offlineReplay(st.data, nil)
		}
	})
	var decodeAllocs []float64
	for _, st := range traces {
		a, err := decodeAllocsPerFrame(st.data)
		if err != nil {
			return err
		}
		decodeAllocs = append(decodeAllocs, a)
	}

	// The first session's trace through the real pipeline in this
	// process, its TraceSource wrapped to time Next: the daemon's source
	// occupancy is not visible from outside it.
	c, err := scenario.Compile(&st.spec, 0)
	if err != nil {
		return err
	}
	var timed *timedSource
	got, el, err := replayInt16(c.Config, st.data, func(s core.FrameSource) core.FrameSource {
		timed = &timedSource{FrameSource: s}
		return timed
	})
	if err == nil {
		for i := range got {
			got[i].Moving = false // replay observations carry no motion flag
		}
		err = sameFixes(got, st.fixes)
	}
	b.check("decorated-source replay fixes equal the offline replay", err)

	var want []fix
	for _, st := range traces {
		want = append(want, st.fixes...)
	}
	spans, err := b.tracedPair("replica", frames, want, func(tr *tracer) ([]fix, error) {
		var all []fix
		for _, st := range traces {
			c, err := scenario.Compile(&st.spec, 0)
			if err != nil {
				return nil, err
			}
			// The recording device's Record: synthesis, digitizing and
			// the frame transform as a whole.
			s := tr.begin("fmcw.record", -1)
			newDevice(c.Config).Record(c.Trajectories[0])
			tr.end(s)
			r, err := newReplica(c.Config)
			if err != nil {
				return nil, err
			}
			rd, err := trace.NewReader(bytes.NewReader(st.data))
			if err != nil {
				return nil, err
			}
			next := (&int16Decoder{rd: rd}).next
			if st.header.Sample != trace.SampleInt16 {
				next = (&sweepDecoder{rd: rd, span: "trace.decode"}).next
			}
			got, err := r.run(tr, len(st.plan), next)
			if err != nil {
				return nil, err
			}
			for _, f := range got {
				f.Moving = false // replay observations carry no motion flag
				all = append(all, f)
			}
		}
		return all, nil
	})
	if err != nil {
		return err
	}
	dur := layerTotals(spans)

	return firstErr(
		b.putLayer("scenario.compile_ms", mean(compileMS), "timed: scenario.Compile + core.NewDevice + calibration, mean over the two session specs"),
		b.putLayer("core.batch_overhead_us", overheadUS, "measured: per-frame wall difference of offline ReplayTraceOpts of the int16 trace with a lone BatchClient vs without, medians of 3"),
		b.putLayer("core.gc_cpu_frac", gcFrac, gcHow+" in this process over offline replays of both traces (the daemon exposes no runtime metrics)"),
		b.putLayer("trace.decode_allocs_per_frame", mean(decodeAllocs), "measured: heap allocations per frame of warm decode loops, mean of the two traces"),
		b.putLayer("trace.decode_us", perFrameUS(dur, "trace.decode", frames), "timed: ReadFrameInt16Into (int16 session) and ReadFrameInto + sweep unpack (float64 session) spans per frame"),
		b.putLayer("dsp.frame_fft_us", perFrameUS(dur, "dsp.frame_fft", frames), "timed: fmcw ComplexFrameFromSweeps{Int16,}Into spans, all antennas, per frame"),
		b.putLayer("track.push_us", perFrameUS(dur, "track.push", frames), "timed: Tracker.Push spans, all antennas, per frame"),
		b.putLayer("locate.solve_us", perFrameUS(dur, "locate.solve", frames), "timed: Locator.Solve spans per frame"),
		b.putCaptureLayers([]*simInputs{traces[0].records, traces[1].records}),
		b.putLayer("fmcw.sweep_synth_us", perFrameUS(dur, "fmcw.record", frames)-perFrameUS(dur, "dsp.frame_fft", frames),
			"derived: fmcw.record spans (each session's recording device's Record) minus dsp.frame_fft spans over the same frames, per frame; serving itself runs no synthesis"),
		b.putLayer("core.source_busy_frac", timed.busy.Seconds()/el.Seconds(),
			"measured in this process: time inside TraceSource.Next over wall time of the first session's trace replayed through Device.StreamFrom (the daemon's source is not visible from outside)"),
		b.putLayer("core.source_blocked_frac", timed.blocked.Seconds()/el.Seconds(),
			"measured in this process: time between Next calls over wall time of the same replay"),
	)
}

// sweepDecoder is the replica's source over a float64 sweep trace: one
// span (named span) covering Reader.ReadFrameInto and the unpacking of
// the pairwise-packed sweeps, as TraceSource does both in Next.
type sweepDecoder struct {
	rd     *trace.Reader
	span   string
	packed []dsp.ComplexFrame
	sweeps [][][]float64
}

func (d *sweepDecoder) next(tr *tracer, i int) (replicaFrame, error) {
	h := d.rd.Header()
	s := tr.begin(d.span, i)
	packed, _, _, err := d.rd.ReadFrameInto(d.packed)
	if err == nil {
		d.packed = packed
		d.sweeps = unpackSweeps(d.sweeps, packed, h.SweepsPerFrame, h.SamplesPerSweep)
	}
	tr.end(s)
	return replicaFrame{sweeps: d.sweeps}, err
}
