package service

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// calibrated wraps a raw monitoring signal as a retrainable layer predictor:
// score = raw(now)/scale with the warning threshold fixed at 1.0, so the
// scale IS the calibrated warning level. Each evaluation appends the raw
// value to a bounded ring — Evaluate only ever runs under the runtime's
// evaluation exclusion (worker pool for the serving predictor, lifecycle
// Collect for a shadow candidate), so the ring needs no lock of its own.
//
// Retraining refits the scale to the captured recent signal (1.25 × the
// 95th percentile, floored at a fraction of the initial hand-tuned scale):
// after an error-rate or load regime shift the warning level follows the
// new regime instead of saturating permanently. The refit is a pure
// function of the captured window — bit-identical at any GOMAXPROCS.
type calibrated struct {
	raw   func(now float64) float64
	scale float64
	floor float64 // lowest admissible refit scale
	ring  []float64
	next  int
	gen   uint64
}

// calibratedRing bounds the per-generation signal history; at the default eval
// cadence this covers far more than one drift episode.
const calibratedRing = 512

// calibratedMinWindow is the fewest captured samples a refit accepts.
const calibratedMinWindow = 32

// newCalibrated builds a generation-0 predictor with the hand-tuned scale.
func newCalibrated(raw func(now float64) float64, scale float64) *calibrated {
	return &calibrated{raw: raw, scale: scale, floor: scale / 4, ring: make([]float64, 0, calibratedRing)}
}

// Evaluate scores the layer and records the raw observation.
func (c *calibrated) Evaluate(now float64) (float64, error) {
	v := c.raw(now)
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		if len(c.ring) < cap(c.ring) {
			c.ring = append(c.ring, v)
		} else {
			c.ring[c.next] = v
		}
		c.next = (c.next + 1) % cap(c.ring)
	}
	return v / c.scale, nil
}

// CaptureWindow copies the recorded raw signal. Runs under the same
// exclusion as Evaluate, so the ring is quiescent.
func (c *calibrated) CaptureWindow(now float64) (any, error) {
	if len(c.ring) < calibratedMinWindow {
		return nil, fmt.Errorf("calibration window too small: %d < %d observations",
			len(c.ring), calibratedMinWindow)
	}
	return append([]float64(nil), c.ring...), nil
}

// Retrain refits the scale from a captured window and returns the next
// generation (sharing the raw signal, starting a fresh ring).
func (c *calibrated) Retrain(window any) (core.LayerPredictor, error) {
	w, ok := window.([]float64)
	if !ok || len(w) == 0 {
		return nil, fmt.Errorf("bad calibration window %T", window)
	}
	vals := append([]float64(nil), w...)
	sort.Float64s(vals)
	scale := 1.25 * vals[int(0.95*float64(len(vals)-1))]
	if scale < c.floor {
		scale = c.floor
	}
	next := newCalibrated(c.raw, scale)
	next.floor, next.gen = c.floor, c.gen+1
	return next, nil
}

// Snapshot serializes the calibration for audit logs.
func (c *calibrated) Snapshot() ([]byte, error) {
	return json.Marshal(struct {
		Kind       string  `json:"kind"`
		Generation uint64  `json:"generation"`
		Scale      float64 `json:"scale"`
	}{Kind: "calibrated", Generation: c.gen, Scale: c.scale})
}
