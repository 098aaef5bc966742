// Package hsmm implements the paper's event-based failure prediction
// method (Sect. 3.2): hidden semi-Markov models over error sequences. A
// model couples a hidden Markov chain over latent "system condition" states
// with per-state inter-event duration distributions — the semi-Markov
// extension that lets the model distinguish slow error trickles from the
// accelerating bursts that precede failures.
//
// Two models are trained (one on failure sequences, one on non-failure
// sequences, Fig. 6); classification compares sequence log-likelihoods
// under both, thresholded per Bayes decision theory.
package hsmm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// ErrModel is wrapped by all model errors.
var ErrModel = errors.New("hsmm: invalid model")

// minDelay floors inter-event delays so log-densities stay finite for
// events sharing a timestamp.
const minDelay = 1e-6

// minSigma floors a fitted lognormal σ, so densities stay bounded.
const minSigma = 0.05

// DurationFamily selects the parametric family for per-state inter-event
// durations.
type DurationFamily int

// Supported duration families. FamilyNone degrades the HSMM to a plain HMM
// (geometric implicit durations) — the ablation baseline of DESIGN.md.
const (
	FamilyLogNormal DurationFamily = iota + 1
	FamilyExponential
	FamilyNone
)

// String names the family.
func (f DurationFamily) String() string {
	switch f {
	case FamilyLogNormal:
		return "lognormal"
	case FamilyExponential:
		return "exponential"
	case FamilyNone:
		return "none"
	default:
		return fmt.Sprintf("DurationFamily(%d)", int(f))
	}
}

// durationDist is one state's fitted duration distribution.
type durationDist struct {
	family DurationFamily
	// lognormal parameters of log-delay, or exponential rate in mu.
	mu, sigma float64
	// norm is the log-density's per-state constant, cached by
	// refreshNorm: −log σ − ½·log 2π (lognormal) or log μ (exponential).
	norm float64
}

// refreshNorm recomputes norm after mu or sigma change. Every score's
// bits depend on these exact expressions (TestScorePathsGolden).
func (d *durationDist) refreshNorm() {
	switch d.family {
	case FamilyLogNormal:
		d.norm = -math.Log(d.sigma) - 0.5*math.Log(2*math.Pi)
	case FamilyExponential:
		d.norm = math.Log(d.mu)
	}
}

// newDuration returns a weakly-informative initial distribution.
func newDuration(family DurationFamily) durationDist {
	switch family {
	case FamilyLogNormal:
		return durationDist{family: family, mu: 0, sigma: 2}
	case FamilyExponential:
		return durationDist{family: family, mu: 1} // rate 1
	default:
		return durationDist{family: FamilyNone}
	}
}

// logPDF returns the log-density of delay dt.
func (d durationDist) logPDF(dt float64) float64 {
	if dt < minDelay {
		dt = minDelay
	}
	switch d.family {
	case FamilyLogNormal:
		z := (math.Log(dt) - d.mu) / d.sigma
		return -0.5*z*z - math.Log(d.sigma) - math.Log(dt) - 0.5*math.Log(2*math.Pi)
	case FamilyExponential:
		return math.Log(d.mu) - d.mu*dt
	default:
		return 0 // FamilyNone: durations carry no information
	}
}

// fillLogPDF writes logPDF(delays[t]) for every t into dst — one state's
// row of a prepared sequence's duration table. logDelays carries
// log(max(delays[t], minDelay)) precomputed once per sequence, so the
// lognormal row costs no transcendental calls in the loop: the per-state
// constant comes from the model's cache (norm) and each cell is a handful
// of multiply-adds.
func (d durationDist) fillLogPDF(dst, delays, logDelays []float64) {
	switch d.family {
	case FamilyLogNormal:
		inv := 1 / d.sigma
		for t, ld := range logDelays {
			z := (ld - d.mu) * inv
			dst[t] = -0.5*z*z - ld + d.norm
		}
	case FamilyExponential:
		for t, dt := range delays {
			if dt < minDelay {
				dt = minDelay
			}
			dst[t] = d.norm - d.mu*dt
		}
	default: // FamilyNone: durations carry no information
		for t := range dst {
			dst[t] = 0
		}
	}
}

// fitMoments re-estimates the distribution from weighted sufficient
// statistics accumulated during the E step: total posterior weight w,
// Σ w·log dt and Σ w·(log dt)² (lognormal), and Σ w·dt (exponential), all
// over delays clamped to minDelay. Zero total weight leaves the
// distribution unchanged.
func (d *durationDist) fitMoments(w, wLog, wLog2, wDt float64) {
	if d.family == FamilyNone || w <= 0 {
		return
	}
	switch d.family {
	case FamilyLogNormal:
		mean := wLog / w
		variance := wLog2/w - mean*mean
		if variance < 0 {
			variance = 0 // guard the E[x²]−mean² form against rounding
		}
		d.mu = mean
		d.sigma = math.Sqrt(variance)
		if d.sigma < minSigma {
			d.sigma = minSigma // keep densities bounded
		}
	case FamilyExponential:
		mean := wDt / w
		if mean < minDelay {
			mean = minDelay
		}
		d.mu = 1 / mean
	}
}

// randomize perturbs the parameters for symmetry breaking at init.
func (d *durationDist) randomize(g *stats.RNG, scale float64) {
	switch d.family {
	case FamilyLogNormal:
		d.mu = math.Log(scale) + g.NormFloat64()
		d.sigma = 1 + g.Float64()
	case FamilyExponential:
		d.mu = (0.5 + g.Float64()) / scale
	}
}
