package scenario

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"io"
	"testing"
)

// crcByte selects the first byte of a record's stored CRC as
// corruptOneRecord's target instead of a payload byte.
const crcByte = -1

// corruptOneRecord XORs mask into one byte of record i inside an
// encoded trace — payload byte at, or the first stored CRC byte when at
// is crcByte — re-compressing the stream so it still reads as a valid
// container. Either way the record's CRC goes stale. CRC damage leaves
// the record's delta payload intact, so recover-mode salvage keeps
// every surviving frame bit-exact; payload damage rides the XOR-delta
// chain into every later frame.
func corruptOneRecord(t *testing.T, data []byte, i, at int, mask byte) []byte {
	t.Helper()
	hdrLen := binary.LittleEndian.Uint32(data[8:12])
	cut := 12 + int(hdrLen) + 4
	zr, err := gzip.NewReader(bytes.NewReader(data[cut:]))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for n := 0; ; n++ {
		plen := binary.LittleEndian.Uint32(body[off : off+4])
		if plen == 0xFFFFFFFF {
			t.Fatalf("record %d not found (stream has %d)", i, n)
		}
		if n == i {
			if at == crcByte {
				at = int(plen)
			} else if at >= int(plen) {
				t.Fatalf("payload byte %d past record %d's %d-byte payload", at, i, plen)
			}
			body[off+4+at] ^= mask
			break
		}
		off += 4 + int(plen) + 4
	}
	var out bytes.Buffer
	out.Write(data[:cut])
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestReplaySkipAccountingOnTruthBearingTrace is the replay-level
// regression for -recover skip accounting: record the corpus's
// two-person cell (every record carries two truth BodyStates), damage
// one record's CRC, and replay in recover mode. Skips must report
// exactly one skipped FRAME — the damaged record — and Frames must drop
// by exactly one, proving records and frames stay one-to-one even when
// truth data shares the record.
func TestReplaySkipAccountingOnTruthBearingTrace(t *testing.T) {
	var duo *Spec
	for _, sp := range Corpus() {
		if sp.Name == "corpus-duo" {
			s := sp
			duo = &s
			break
		}
	}
	if duo == nil {
		t.Fatal("corpus has no two-person cell")
	}
	var buf bytes.Buffer
	n, _, err := RecordCell(duo, 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("recorded only %d frames", n)
	}
	clean := buf.Bytes()

	// Baseline: the pristine trace replays all frames with zero skips.
	base, err := ReplayTrace(context.Background(), bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	if base.Frames != n || base.Skips != 0 {
		t.Fatalf("pristine replay: %d frames %d skips, want %d and 0", base.Frames, base.Skips, n)
	}

	damaged := corruptOneRecord(t, append([]byte(nil), clean...), n/2, crcByte, 0x01)

	// Strict mode must refuse the damaged trace.
	if _, err := ReplayTrace(context.Background(), bytes.NewReader(damaged)); err == nil {
		t.Fatal("strict replay accepted a damaged trace")
	}

	// Recover mode: one damaged record == one skipped frame.
	res, err := ReplayTraceOpts(context.Background(), bytes.NewReader(damaged), ReplayOptions{Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skips != 1 {
		t.Fatalf("Skips = %d, want 1 (frames, not embedded truth records)", res.Skips)
	}
	if res.Frames != n-1 {
		t.Fatalf("Frames = %d, want %d (exactly the damaged frame withheld)", res.Frames, n-1)
	}
}

// TestRecoverReplayQuarantinesPoisonedAntenna is the regression for
// recover-mode replay running without health monitoring. One record of
// a 4-Rx walk has the top exponent bit of one bin's real part flipped
// on antenna 0. Recover mode skips that record but applies its damaged
// delta, so the flip rides the XOR-delta chain into every later frame
// of antenna 0 (its power overflows to Inf). The replay must quarantine
// the antenna and keep locating on the other three, flagging those
// fixes Degraded, instead of feeding the poisoned bins to the tracker.
func TestRecoverReplayQuarantinesPoisonedAntenna(t *testing.T) {
	var walk *Spec
	for _, sp := range Corpus() {
		if sp.Name == "corpus-walk" {
			s := sp
			s.Devices = append([]DeviceSpec(nil), s.Devices...)
			s.Devices[0].ExtraTopRx = true
			walk = &s
			break
		}
	}
	if walk == nil {
		t.Fatal("corpus has no corpus-walk cell")
	}
	var buf bytes.Buffer
	n, _, err := RecordCell(walk, 0, &buf)
	if err != nil {
		t.Fatal(err)
	}

	// Record payload layout: u32 index, u8 truth count, one truth state,
	// then per antenna a u32 bin count and 16 bytes (re, im) per bin.
	const truthLen = 6*8 + 2
	const bin = 40
	poisoned := n / 4
	at := 4 + 1 + truthLen + 4 + 16*bin + 7 // antenna 0, real part, top byte
	damaged := corruptOneRecord(t, buf.Bytes(), poisoned, at, 0x40)

	var fixes []ReplayFix
	res, err := ReplayTraceOpts(context.Background(), bytes.NewReader(damaged), ReplayOptions{
		Recover: true,
		Observe: func(f ReplayFix) { fixes = append(fixes, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skips != 1 {
		t.Fatalf("Skips = %d, want 1", res.Skips)
	}
	if vf := res.Metrics["valid_frac"]; vf < 0.9 {
		t.Fatalf("valid_frac = %.2f after one poisoned record, want >= 0.9", vf)
	}

	// The antenna is dark once darkAfter (8) consecutive frames failed
	// the health check; from then on every fix is a 3-antenna fix.
	c, err := Compile(walk, 0)
	if err != nil {
		t.Fatal(err)
	}
	interval := c.Config.Radio.FrameInterval()
	darkT := float64(poisoned+1+8) * interval
	degraded := 0
	for _, f := range fixes {
		if !f.Valid {
			continue
		}
		switch {
		case f.T < float64(poisoned)*interval && f.Degraded:
			t.Fatalf("fix at T=%.3f flagged Degraded before the damage", f.T)
		case f.T >= darkT && !f.Degraded:
			t.Fatalf("fix at T=%.3f used the poisoned antenna", f.T)
		case f.T >= darkT:
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no Degraded fixes after the damage")
	}
}
