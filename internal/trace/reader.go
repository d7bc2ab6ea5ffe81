package trace

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"witrack/internal/dsp"
	"witrack/internal/motion"
)

// Reader streams frames out of a .wtrace container. It validates the
// magic, version, and every CRC as it goes; any violation — including a
// stream that ends before the trailer — surfaces as an error wrapping
// ErrCorrupt, never as a panic or a silently short trace.
type Reader struct {
	zr     *gzip.Reader
	h      Header
	buf    []byte
	prev   [][]uint64
	prev16 [][]int16
	tbuf   []motion.BodyState // ReadFrameInto's reusable truth scratch
	n      int
	done   bool
	err    error // sticky

	// Recover mode (opt-in): CRC-failed records are skipped with a
	// count instead of failing the stream. seq is the next expected
	// record index (== n plus the skips); lastIdx the index of the most
	// recently delivered frame.
	rec     bool
	skipped int
	seq     int
	lastIdx int
}

// NewReader parses the container preamble and prepares the compressed
// body for streaming.
func NewReader(r io.Reader) (*Reader, error) {
	var pre [12]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("%w: reading preamble: %v", ErrCorrupt, err)
	}
	if [6]byte(pre[:6]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, pre[:6])
	}
	switch v := binary.LittleEndian.Uint16(pre[6:8]); v {
	case versionPlain, Version:
	default:
		return nil, fmt.Errorf("%w: version %d (this reader handles %d through %d)", ErrVersion, v, versionPlain, Version)
	}
	hdrLen := binary.LittleEndian.Uint32(pre[8:12])
	if hdrLen == 0 || hdrLen > maxHeaderLen {
		return nil, fmt.Errorf("%w: header length %d out of range", ErrCorrupt, hdrLen)
	}
	hdr := make([]byte, hdrLen+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	body, sum := hdr[:hdrLen], binary.LittleEndian.Uint32(hdr[hdrLen:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: header CRC %#08x != stored %#08x", ErrCorrupt, got, sum)
	}
	var h Header
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("%w: decoding header: %v", ErrCorrupt, err)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: opening compressed body: %v", ErrCorrupt, err)
	}
	zr.Multistream(false)
	return &Reader{
		zr:      zr,
		h:       h,
		prev:    make([][]uint64, h.NumRx),
		prev16:  make([][]int16, h.NumRx),
		lastIdx: -1,
	}, nil
}

// SetRecover switches the reader into (or out of) recover mode: a
// record whose payload fails its CRC no longer kills the stream — it is
// withheld from the caller and counted in Skipped, and reading resyncs
// at the next record. The damaged payload is still structurally parsed
// when possible so the XOR-delta chain stays aligned (each record is a
// delta against its predecessor; silently dropping one would corrupt
// every later frame). Framing damage — a broken length field, a missing
// trailer, a trailer/stream mismatch — remains a hard error in either
// mode: past it there is no record boundary to resync to.
//
// Recover mode is for salvaging damaged captures. It relies on the
// downstream pipeline's health monitoring (always on in core's devices)
// to quarantine what it cannot repair: a flipped payload bit rides the
// delta chain into every later frame, and a record whose structure was
// itself unparseable leaves subsequent frames decoded against a stale
// chain.
func (tr *Reader) SetRecover(on bool) { tr.rec = on }

// Skipped returns how many corrupt records recover mode has skipped.
func (tr *Reader) Skipped() int { return tr.skipped }

// FrameIndex returns the record index of the most recently delivered
// frame (-1 before the first). Without skips it is FramesRead()-1; in
// recover mode it advances past skipped records, exposing the gaps.
func (tr *Reader) FrameIndex() int { return tr.lastIdx }

// Header returns the trace metadata.
func (tr *Reader) Header() Header { return tr.h }

// FramesRead returns how many frames have been decoded so far.
func (tr *Reader) FramesRead() int { return tr.n }

// ReadFrame decodes the next frame into freshly allocated buffers.
// It returns io.EOF after the last frame (the trailer has then been
// verified), or an error wrapping ErrCorrupt on any damage.
func (tr *Reader) ReadFrame() ([]dsp.ComplexFrame, motion.BodyState, bool, error) {
	return tr.ReadFrameInto(nil)
}

// ReadFrameInto is ReadFrame decoding into dst, reusing its per-antenna
// slices when they have the right length (resizing them otherwise), so
// a streaming replay loop allocates nothing once warm. It returns the
// frame slice (which is dst when dst had the right shape), the first
// ground-truth state, and whether the frame carried one. Multi-person
// traces surface only subject 0 here; use ReadFrameTruthsInto for the
// full truth set.
func (tr *Reader) ReadFrameInto(dst []dsp.ComplexFrame) ([]dsp.ComplexFrame, motion.BodyState, bool, error) {
	frames, truths, err := tr.ReadFrameTruthsInto(dst, tr.tbuf[:0])
	if truths != nil {
		tr.tbuf = truths // keep the decoded buffer for the next frame
	}
	if err != nil || len(truths) == 0 {
		return frames, motion.BodyState{}, false, err
	}
	return frames, truths[0], true, nil
}

// ReadFrameTruthsInto decodes the next frame with every ground-truth
// BodyState it carries (one per tracked subject, in subject order; nil
// for truthless frames), decoding frames into dst and truths into
// tdst, both reused when correctly sized. It returns io.EOF after the
// last frame, or an error wrapping ErrCorrupt on any damage.
func (tr *Reader) ReadFrameTruthsInto(dst []dsp.ComplexFrame, tdst []motion.BodyState) ([]dsp.ComplexFrame, []motion.BodyState, error) {
	rec := frameRecord{frames: dst, truths: tdst[:0]}
	if err := tr.read("", &rec); err != nil {
		return nil, nil, err
	}
	return rec.frames, rec.truths, nil
}

// ReadFrameInt16Into decodes the next quantized sweep-domain frame of a
// SampleInt16 trace: per antenna, the frame's concatenated ADC codes
// (SweepsPerFrame × SamplesPerSweep of them), decoded from the wrapping
// delta chain into dst, reusing its slices when correctly sized. Truths
// decode into tdst exactly as in ReadFrameTruthsInto. It returns io.EOF
// after the last frame, or an error wrapping ErrCorrupt on any damage.
func (tr *Reader) ReadFrameInt16Into(dst [][]int16, tdst []motion.BodyState) ([][]int16, []motion.BodyState, error) {
	rec := frameRecord{codes: dst, truths: tdst[:0]}
	if err := tr.read(SampleInt16, &rec); err != nil {
		return nil, nil, err
	}
	return rec.codes, rec.truths, nil
}

// frameRecord is one decoded frame record: its index, its ground truths
// (nil for a truthless frame), and per antenna either float64 frames or
// int16 codes, whichever the trace's sample encoding holds.
type frameRecord struct {
	index  int
	truths []motion.BodyState
	frames []dsp.ComplexFrame
	codes  [][]int16
}

// read decodes the next record of a trace whose sample encoding is
// sample into rec, enforcing the record sequence.
func (tr *Reader) read(sample string, rec *frameRecord) error {
	if tr.err != nil {
		return tr.err
	}
	if tr.done {
		return io.EOF
	}
	if sample != tr.h.Sample {
		return tr.fail("%s read on a %s trace", sampleName(sample), sampleName(tr.h.Sample))
	}
	payload, err := tr.nextRecord()
	if err != nil {
		return err
	}
	if err := tr.parse(payload, rec); err != nil {
		return tr.fail("frame %d: %v", tr.seq, err)
	}
	if rec.index != tr.seq {
		return tr.fail("frame index %d out of sequence (want %d)", rec.index, tr.seq)
	}
	tr.lastIdx = rec.index
	tr.n++
	tr.seq++
	if len(rec.truths) == 0 {
		rec.truths = nil
	}
	return nil
}

// sampleName names a sample encoding in error messages.
func sampleName(sample string) string {
	if sample == "" {
		return "float64-sample"
	}
	return sample + "-sample"
}

// parse decodes one record payload: the index and truth prefix, then
// NumRx antenna bodies, each a uint32 count followed by that many
// values applied to the antenna's delta chain — XOR'd float64 bit pairs
// or wrapping int16 deltas, per the header's sample encoding. The
// decoded antenna then lands in rec.frames or rec.codes, resized when
// mis-shaped. A nil rec is a salvage pass: the prefix is skipped and the
// bodies only advance the chain. Every length is bounds-checked before
// use, so damage yields an error, never a panic.
func (tr *Reader) parse(payload []byte, rec *frameRecord) error {
	c := cursor{b: payload}
	index := c.u32()
	count := int(c.u8())
	if c.bad {
		return errors.New("record too short")
	}
	if count > MaxTruths {
		return fmt.Errorf("truth count %d exceeds limit %d", count, MaxTruths)
	}
	for i := 0; i < count; i++ {
		s := c.bodyState()
		if c.bad {
			return fmt.Errorf("record too short for %d truth states", count)
		}
		if rec != nil {
			rec.truths = append(rec.truths, s)
		}
	}
	int16s := tr.h.Sample == SampleInt16
	width := uint64(16) // one complex value: two XOR'd float64 bit patterns
	if int16s {
		width = 2
	}
	if rec != nil {
		rec.index = int(index)
		if int16s && len(rec.codes) != tr.h.NumRx {
			rec.codes = make([][]int16, tr.h.NumRx)
		}
		if !int16s && len(rec.frames) != tr.h.NumRx {
			rec.frames = make([]dsp.ComplexFrame, tr.h.NumRx)
		}
	}
	for k := 0; k < tr.h.NumRx; k++ {
		// Bound-check in uint64 before converting: a corrupt 2^31..2^32
		// count must not go negative (and panic in make) on 32-bit
		// platforms, nor overflow the byte-size product.
		n32 := c.u32()
		if c.bad || uint64(n32)*width > uint64(c.rem()) {
			return fmt.Errorf("antenna %d: record too short for %d values", k, n32)
		}
		n := int(n32)
		body := c.take(n * int(width))
		// A first-ever record or a count change starts the antenna's
		// chain from zero, as the writer's does.
		switch tr.h.Sample {
		case SampleInt16:
			if len(tr.prev16[k]) != n {
				tr.prev16[k] = make([]int16, n)
			}
			p := tr.prev16[k]
			for i := range p {
				// Wrapping addition inverts the writer's wrapping
				// subtraction exactly.
				p[i] += int16(binary.LittleEndian.Uint16(body[2*i:]))
			}
			if rec != nil {
				rec.codes[k] = append(rec.codes[k][:0], p...)
			}
		default:
			if len(tr.prev[k]) != 2*n {
				tr.prev[k] = make([]uint64, 2*n)
			}
			p := tr.prev[k]
			for i := range p {
				p[i] ^= binary.LittleEndian.Uint64(body[8*i:])
			}
			if rec != nil {
				f := rec.frames[k]
				if len(f) != n {
					f = make(dsp.ComplexFrame, n)
				}
				for i := range f {
					f[i] = complex(math.Float64frombits(p[2*i]), math.Float64frombits(p[2*i+1]))
				}
				rec.frames[k] = f
			}
		}
	}
	if c.rem() != 0 {
		return fmt.Errorf("%d trailing bytes in record", c.rem())
	}
	return nil
}

// nextRecord reads the next framed record from the gzip stream: length
// prefix, payload (into the reader's reusable buffer), payload CRC. It
// handles the trailer (returning io.EOF via finish) and recover mode
// (salvaging CRC-failed records and resyncing on the next one).
func (tr *Reader) nextRecord() ([]byte, error) {
	for {
		var pre [4]byte
		if _, err := io.ReadFull(tr.zr, pre[:]); err != nil {
			return nil, tr.fail("stream ended before trailer: %v", err)
		}
		plen := binary.LittleEndian.Uint32(pre[:])
		if plen == trailerSentinel {
			return nil, tr.finish()
		}
		if plen > maxPayloadLen {
			return nil, tr.fail("frame record length %d exceeds limit", plen)
		}
		if cap(tr.buf) < int(plen) {
			tr.buf = make([]byte, plen)
		}
		payload := tr.buf[:plen]
		if _, err := io.ReadFull(tr.zr, payload); err != nil {
			return nil, tr.fail("truncated frame record: %v", err)
		}
		if _, err := io.ReadFull(tr.zr, pre[:]); err != nil {
			return nil, tr.fail("truncated frame CRC: %v", err)
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(pre[:]); got != want {
			if tr.rec {
				// Recover mode: apply the damaged record's deltas to the
				// chain as far as its structure still parses, count the
				// skip, and resync at the next record. Skipping the
				// deltas would corrupt every later frame wherever
				// consecutive frames differ; applying them confines the
				// error to the flipped bits, and resyncs bit-exactly when
				// the flip hit the stored CRC instead of the payload.
				tr.parse(payload, nil)
				tr.skipped++
				tr.seq++
				continue
			}
			return nil, tr.fail("frame %d CRC %#08x != stored %#08x", tr.seq, got, want)
		}
		return payload, nil
	}
}

// finish verifies the trailer and the compressed stream's own footer,
// then marks the trace cleanly consumed.
func (tr *Reader) finish() error {
	var t [12]byte
	if _, err := io.ReadFull(tr.zr, t[:]); err != nil {
		return tr.fail("truncated trailer: %v", err)
	}
	if got, want := crc32.ChecksumIEEE(t[:8]), binary.LittleEndian.Uint32(t[8:]); got != want {
		return tr.fail("trailer CRC %#08x != stored %#08x", got, want)
	}
	// The trailer counts written records; in recover mode skipped ones
	// were still consumed, so compare against seq (== n when no skips).
	if count := binary.LittleEndian.Uint64(t[:8]); count != uint64(tr.seq) {
		return tr.fail("trailer says %d frames, decoded %d", count, tr.seq)
	}
	// Drain the gzip stream: this forces the decompressor to verify its
	// own CRC/length footer (catching traces truncated inside the final
	// deflate block) and rejects garbage between trailer and stream end.
	var one [1]byte
	switch _, err := tr.zr.Read(one[:]); err {
	case io.EOF:
	case nil:
		return tr.fail("data after trailer")
	default:
		return tr.fail("verifying stream end: %v", err)
	}
	tr.done = true
	return io.EOF
}

// fail records and returns a corruption error; every later read returns
// the same error.
func (tr *Reader) fail(format string, args ...any) error {
	tr.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	return tr.err
}

// cursor decodes a frame payload with explicit bounds checks: any
// overrun sets bad instead of panicking, so corrupt length fields are
// reported as errors.
type cursor struct {
	b   []byte
	i   int
	bad bool
}

func (c *cursor) rem() int { return len(c.b) - c.i }

func (c *cursor) u8() byte {
	if c.rem() < 1 {
		c.bad = true
		return 0
	}
	v := c.b[c.i]
	c.i++
	return v
}

// take returns the next n bytes, which the caller has bounds-checked.
func (c *cursor) take(n int) []byte {
	b := c.b[c.i : c.i+n]
	c.i += n
	return b
}

func (c *cursor) u32() uint32 {
	if c.rem() < 4 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.i:])
	c.i += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.rem() < 8 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.i:])
	c.i += 8
	return v
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) bodyState() motion.BodyState {
	var s motion.BodyState
	if c.rem() < bodyStateLen {
		c.bad = true
		return s
	}
	s.Center.X, s.Center.Y, s.Center.Z = c.f64(), c.f64(), c.f64()
	s.Moving = c.u8() != 0
	s.HandActive = c.u8() != 0
	s.Hand.X, s.Hand.Y, s.Hand.Z = c.f64(), c.f64(), c.f64()
	return s
}
