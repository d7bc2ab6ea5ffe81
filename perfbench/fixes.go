package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"witrack/internal/core"
	"witrack/internal/scenario"
)

// fix is one fused output frame as the benchmark compares it: the frame
// time, the 3D position and the quality flags. Positions compare by
// their IEEE bits, so two runs agree only when they agree exactly.
type fix struct {
	T        float64
	X, Y, Z  float64
	Valid    bool
	Moving   bool
	Degraded bool
}

func fixFromSample(s core.Sample) fix {
	return fix{T: s.T, X: s.Pos.X, Y: s.Pos.Y, Z: s.Pos.Z, Valid: s.Valid, Moving: s.Moving, Degraded: s.Degraded}
}

// fixFromReplay converts a served/offline replay observation; replay
// observations carry no motion flag, so Moving stays false on both
// sides of any comparison built from them.
func fixFromReplay(f scenario.ReplayFix) fix {
	return fix{T: f.T, X: f.Pos.X, Y: f.Pos.Y, Z: f.Pos.Z, Valid: f.Valid, Degraded: f.Degraded}
}

// digest hashes a fix sequence bit for bit: the float fields by their
// IEEE-754 bits, the flags as bytes, in order.
func digest(fixes []fix) string {
	h := sha256.New()
	var buf [4*8 + 3]byte
	for _, f := range fixes {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(f.T))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(f.X))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(f.Y))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(f.Z))
		buf[32], buf[33], buf[34] = b2u(f.Valid), b2u(f.Moving), b2u(f.Degraded)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// sameFixes reports nil when got equals want bit for bit, otherwise the
// first difference.
func sameFixes(got, want []fix) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d fixes, reference has %d", len(got), len(want))
	}
	if dg, dw := digest(got), digest(want); dg != dw {
		for i := range got {
			if digest(got[i:i+1]) != digest(want[i:i+1]) {
				return fmt.Errorf("fix %d differs: got %+v, reference %+v (digest %s vs %s)", i, got[i], want[i], dg, dw)
			}
		}
		return fmt.Errorf("digest %s, reference %s", dg, dw)
	}
	return nil
}
