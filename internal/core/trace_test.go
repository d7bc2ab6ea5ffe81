package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"testing"

	"witrack/internal/dsp"
	"witrack/internal/motion"
	"witrack/internal/trace"
)

// TestRecordToHeaderPicksCapture pins the one capture path: RecordTo
// writes whatever its trace header describes. Every header a device can
// produce records a trace that replays bit-identically to the live run;
// every header it cannot produce is refused before a frame is written.
func TestRecordToHeaderPicksCapture(t *testing.T) {
	slow := compactSweepConfig(41)
	fast := slow
	fast.SlowSynth = false
	quant := slow
	quant.Radio.ADCBits = 14
	traj := motion.NewRandomWalk(motion.DefaultWalkConfig(
		motion.Region{XMin: -2, XMax: 2, YMin: 3, YMax: 6},
		slow.Subject.CenterHeight(), 0.5, slow.Seed+100))

	bins := (*Pipeline).TraceHeader
	sweeps := (*Pipeline).SweepTraceHeader
	// The header shapes no device of the table can record.
	float64Sweeps := func(c *Pipeline) trace.Header {
		h := c.sweepShape()
		h.Bins = h.SweepsPerFrame * h.SamplesPerSweep / 2
		return h
	}
	int16Sweeps := func(c *Pipeline) trace.Header {
		h := c.sweepShape()
		h.Sample, h.ADCBits, h.ADCScale = trace.SampleInt16, 14, 1
		return h
	}
	reshaped := func(c *Pipeline) trace.Header {
		h := c.SweepTraceHeader()
		h.SweepsPerFrame *= 2
		return h
	}

	cases := []struct {
		name   string
		cfg    Config
		header func(*Pipeline) trace.Header
		ok     bool
	}{
		{"fast/bins", fast, bins, true},
		{"fast/sweeps", fast, sweeps, false},
		{"slow/bins", slow, bins, true},
		{"slow/float64 sweeps", slow, sweeps, true},
		{"slow/int16 sweeps", slow, int16Sweeps, false},
		{"slow/reshaped sweeps", slow, reshaped, false},
		{"quant/bins", quant, bins, true},
		{"quant/int16 sweeps", quant, sweeps, true},
		{"quant/float64 sweeps", quant, float64Sweeps, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, err := NewDevice(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := tc.header(&dev.Pipeline)
			var buf bytes.Buffer
			tw, err := trace.NewWriter(&buf, h)
			if err != nil {
				t.Fatal(err)
			}
			n, err := dev.RecordTo(tw, traj)
			if !tc.ok {
				if err == nil || n != 0 {
					t.Fatalf("RecordTo wrote %d frames under header %+v, want a record-time error", n, h)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			liveDev, err := NewDevice(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := liveDev.Run(traj).Samples
			replayed := replayTraceBytes(t, tc.cfg, buf.Bytes())
			if len(replayed) != len(live) || n != len(live) {
				t.Fatalf("recorded %d frames and replayed %d samples, live run %d", n, len(replayed), len(live))
			}
			for i := range live {
				if live[i] != replayed[i] {
					t.Fatalf("sample %d diverged:\n  live   %+v\n  replay %+v", i, live[i], replayed[i])
				}
			}
		})
	}
}

// tinyTrace encodes a two-frame trace under h by hand-sized records:
// per antenna, bins complex values for float64 traces or bins codes for
// int16 traces.
func tinyTrace(tb testing.TB, h trace.Header, bins int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, h)
	if err != nil {
		tb.Fatal(err)
	}
	truth := motion.BodyState{Moving: true}
	for i := 0; i < 2; i++ {
		frames := make([]dsp.ComplexFrame, h.NumRx)
		codes := make([][]int16, h.NumRx)
		for k := range frames {
			frames[k] = make(dsp.ComplexFrame, bins)
			codes[k] = make([]int16, bins)
			for j := range frames[k] {
				frames[k][j] = complex(float64(i+j), float64(k))
				codes[k][j] = int16(i*j - k)
			}
		}
		if h.Sample == trace.SampleInt16 {
			err = tw.WriteFrameInt16(codes, &truth)
		} else {
			err = tw.WriteFrame(frames, &truth)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// tinyHeaders returns small valid headers of every record encoding:
// range bins, float64 sweeps and int16 sweeps, each with the per-antenna
// record length its tinyTrace takes.
func tinyHeaders() (hs []trace.Header, bins []int) {
	base := trace.Header{Interval: 0.0125, NumRx: 3}
	sw := base
	sw.Domain, sw.SweepsPerFrame, sw.SamplesPerSweep = trace.DomainSweeps, 1, 4
	q := sw
	q.Sample, q.ADCBits, q.ADCScale = trace.SampleInt16, 14, 1.0/8192
	return []trace.Header{base, sw, q}, []int{4, 2, 4}
}

// rewriteHeader returns data with its header JSON replaced by mutate's
// edit of it (length and CRC fixed up), bypassing the writer's
// validation — the way a hostile or damaged file reaches a reader.
func rewriteHeader(tb testing.TB, data []byte, mutate func(*trace.Header)) []byte {
	tb.Helper()
	hdrLen := binary.LittleEndian.Uint32(data[8:12])
	var h trace.Header
	if err := json.Unmarshal(data[12:12+hdrLen], &h); err != nil {
		tb.Fatal(err)
	}
	mutate(&h)
	js, err := json.Marshal(&h)
	if err != nil {
		tb.Fatal(err)
	}
	out := append([]byte(nil), data[:8]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(js)))
	out = append(out, js...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(js))
	return append(out, data[12+hdrLen+4:]...)
}

// overflowTraces returns float64 and int16 sweep traces whose header
// claims 2^62+1 sweeps of 4 samples (on 64-bit ints): the int product
// wraps to 4 samples, matching the records' actual length.
func overflowTraces(tb testing.TB) [][]byte {
	hs, bins := tinyHeaders()
	var out [][]byte
	for i, h := range hs[1:] {
		out = append(out, rewriteHeader(tb, tinyTrace(tb, h, bins[i+1]), func(h *trace.Header) {
			h.SweepsPerFrame = math.MaxInt>>1 + 2
		}))
	}
	return out
}

// drainTraceSource decodes data through a TraceSource to the end and
// reports how many batches it delivered, the reader (nil when the
// preamble was rejected), and the source's latched error.
func drainTraceSource(data []byte, rec bool) (int, *trace.Reader, error) {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	r.SetRecover(rec)
	src := NewTraceSource(r)
	n := 0
	for b := src.Next(); b != nil; b = src.Next() {
		n++
		src.Recycle(b)
	}
	return n, r, src.Err()
}

// TestTraceSourceRejectsOverflowingSweepShape pins the malformed-header
// fix: a sweep shape whose sample count overflows int must be rejected
// as corrupt, not size a decoder allocation by its unwrapped factors.
func TestTraceSourceRejectsOverflowingSweepShape(t *testing.T) {
	for i, data := range overflowTraces(t) {
		if n, _, err := drainTraceSource(data, false); err == nil {
			t.Errorf("trace %d: overflowing sweep shape decoded %d frames without error", i, n)
		}
	}
}

// FuzzTraceSource feeds arbitrary bytes through trace.NewReader and the
// pipeline's TraceSource — strict and in recover mode — covering the
// header-driven decode past the reader: sweep unpacking and int16 job
// views. Nothing may panic, and a drain that reports no error must have
// delivered every frame the reader decoded.
func FuzzTraceSource(f *testing.F) {
	hs, bins := tinyHeaders()
	for i, h := range hs {
		f.Add(tinyTrace(f, h, bins[i]))
	}
	for _, data := range overflowTraces(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range []bool{false, true} {
			n, r, err := drainTraceSource(data, rec)
			if err == nil && n != r.FramesRead() {
				t.Fatalf("clean drain delivered %d batches, reader decoded %d frames", n, r.FramesRead())
			}
		}
	})
}
