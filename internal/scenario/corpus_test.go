package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"witrack/internal/core"
	"witrack/internal/trace"
)

// TestGoldenCorpusReplay is the replay-backed regression suite: it
// streams every checked-in golden trace (testdata/corpus) through the
// pipeline and requires the scored metrics to match the recorded
// CORPUS.json snapshot byte-for-byte. Because the traces carry the
// frames, this gates the entire processing side — tracker, locator,
// scoring — against numeric drift without paying synthesis cost.
//
// When metrics legitimately change, refresh the corpus (see README
// "Record & replay"):
//
//	go run ./cmd/witrack-record -corpus \
//	    -out internal/scenario/testdata/corpus \
//	    -json internal/scenario/testdata/corpus/CORPUS.json
func TestGoldenCorpusReplay(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Like the core golden digests, the snapshot metrics were
		// captured on amd64; fused multiply-adds on other architectures
		// legitimately shift low-order bits. The arch-independent replay
		// properties are covered by TestRecordCellReplayMatchesLiveCell.
		t.Skipf("corpus snapshot is amd64-specific (GOARCH=%s)", runtime.GOARCH)
	}
	snapPath := filepath.Join("testdata", "corpus", "CORPUS.json")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	var snap ReplayReport
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	if len(snap.Traces) < 2 {
		t.Fatalf("snapshot lists %d traces, want the full corpus", len(snap.Traces))
	}

	var total int64
	for _, want := range snap.Traces {
		want := want
		t.Run(want.Trace, func(t *testing.T) {
			path := filepath.Join("testdata", "corpus", want.Trace)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatalf("snapshot names a missing trace: %v", err)
			}
			total += st.Size()
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, err := ReplayTrace(context.Background(), f)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got.Name != want.Name || got.Device != want.Device {
				t.Fatalf("identity (%s, %d) != snapshot (%s, %d)", got.Name, got.Device, want.Name, want.Device)
			}
			if got.Frames != want.Frames {
				t.Fatalf("replayed %d frames, snapshot has %d", got.Frames, want.Frames)
			}
			if len(got.Metrics) != len(want.Metrics) {
				t.Fatalf("metric set changed: %v != %v", got.Metrics.Keys(), want.Metrics.Keys())
			}
			for _, k := range want.Metrics.Keys() {
				gv, ok := got.Metrics[k]
				if !ok {
					t.Fatalf("metric %s missing from replay", k)
				}
				if math.Float64bits(gv) != math.Float64bits(want.Metrics[k]) {
					t.Fatalf("metric %s = %.17g != snapshot %.17g — the replay path drifted; "+
						"if the change is intentional, refresh the corpus with witrack-record -corpus",
						k, gv, want.Metrics[k])
				}
			}
			// Byte-for-byte: re-marshal the replayed result with the
			// snapshot's own encoding and require identical JSON.
			gotJSON, err := json.Marshal(got.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("metrics JSON diverged:\n  got  %s\n  want %s", gotJSON, wantJSON)
			}
		})
	}
	// The corpus is checked into git: keep it honest about its budget
	// (raised from 1 MB when the two-person cell joined, and again when
	// the quantized int16 sweep cell did — raw time-domain sweeps carry
	// more bytes per frame than pre-transformed range bins even at 16
	// bits per sample).
	const corpusBudget = 4 << 19
	if total > corpusBudget {
		t.Fatalf("corpus weighs %d bytes, over the ~2 MB budget — trim durations or MaxRange", total)
	}
}

// TestReplayObserveContract pins ReplayOptions.Observe on golden corpus
// traces (single-person bins, two-person bins, int16 sweeps): it fires
// once per replayed frame in frame order, each call carries exactly the
// fused sample's time, flags and position — subject 0's on the
// two-person cell — and its Valid/Degraded tallies equal the scorer's.
// The reference is the same trace streamed sample by sample through
// the cell's own device and scored by the cell scorer.
func TestReplayObserveContract(t *testing.T) {
	for _, name := range []string{"corpus-walk", "corpus-duo", "corpus-int16"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "corpus", name+"-d0.wtrace"))
			if err != nil {
				t.Fatal(err)
			}
			var fixes []ReplayFix
			res, err := ReplayTraceOpts(context.Background(), bytes.NewReader(data), ReplayOptions{
				Observe: func(f ReplayFix) { fixes = append(fixes, f) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(fixes) != res.Frames {
				t.Fatalf("Observe fired %d times for %d replayed frames", len(fixes), res.Frames)
			}
			valid, degraded := 0, 0
			for i, f := range fixes {
				if i > 0 && !(f.T > fixes[i-1].T) {
					t.Fatalf("fix %d at T=%g does not follow T=%g", i, f.T, fixes[i-1].T)
				}
				if f.Valid {
					valid++
				}
				if f.Degraded {
					degraded++
				}
			}

			want, ref, distinct := observeReference(t, data)
			if len(want) != len(fixes) {
				t.Fatalf("reference stream has %d samples, Observe saw %d", len(want), len(fixes))
			}
			for i := range want {
				if fixes[i] != want[i] {
					t.Fatalf("fix %d = %+v, fused sample gives %+v", i, fixes[i], want[i])
				}
			}
			if name == "corpus-duo" && !distinct {
				t.Fatal("no valid duo frame separates subject 0 from subject 1")
			}
			if !metricsBitEqual(ref.res.Metrics, res.Metrics) {
				t.Fatalf("reference scoring diverged from the replay:\n  ref    %v\n  replay %v", ref.res.Metrics, res.Metrics)
			}
			if valid != ref.valid || degraded != ref.degraded {
				t.Fatalf("Observe counted %d valid / %d degraded, scorer %d / %d", valid, degraded, ref.valid, ref.degraded)
			}
		})
	}
}

// observeReference streams a corpus trace through its cell's device
// directly and returns the fix each fused sample should produce, the
// scorer's tallies over the same samples, and whether some valid
// k-person frame put subject 0 and subject 1 at different positions.
func observeReference(t *testing.T, data []byte) ([]ReplayFix, *cellOutcome, bool) {
	t.Helper()
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var sp Spec
	if err := json.Unmarshal(tr.Header().Scenario, &sp); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(&sp, tr.Header().DeviceIndex)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := newCellDevice(c, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	out := &cellOutcome{}
	var fixes []ReplayFix
	distinct := false
	if dev.multi != nil {
		ch, err := dev.multi.StreamFrom(ctx, core.NewTraceSource(tr))
		if err != nil {
			t.Fatal(err)
		}
		var samples []core.MultiSample
		for s := range ch {
			samples = append(samples, s)
			fix := ReplayFix{T: s.T, Valid: s.Valid, Degraded: s.Degraded}
			if len(s.Pos) > 0 {
				fix.Pos = s.Pos[0]
			}
			if s.Valid && len(s.Pos) > 1 && s.Pos[0] != s.Pos[1] {
				distinct = true
			}
			fixes = append(fixes, fix)
		}
		replay := make(chan core.MultiSample, len(samples))
		for _, s := range samples {
			replay <- s
		}
		close(replay)
		scoreMultiStream(replay, out, nil)
	} else {
		ch, err := dev.single.StreamFrom(ctx, core.NewTraceSource(tr))
		if err != nil {
			t.Fatal(err)
		}
		var samples []core.Sample
		for s := range ch {
			samples = append(samples, s)
			fixes = append(fixes, ReplayFix{T: s.T, Pos: s.Pos, Valid: s.Valid, Degraded: s.Degraded})
		}
		replay := make(chan core.Sample, len(samples))
		for _, s := range samples {
			replay <- s
		}
		close(replay)
		scoreTrackingStream(replay, c, out, nil)
	}
	return fixes, out, distinct
}
