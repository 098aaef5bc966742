package experiments

import (
	"math"
	"testing"
)

// TestClosedLoopGolden pins the closed loop's decisions, bit for bit: E3 at
// DefaultMEAConfig and E12 at seed 5 over two days, guard off and on. Every
// figure here follows from what the loop decided and when — the
// countermeasures steer the live simulator, so one decision taken at another
// instant, or on another score, moves the availabilities, the failure
// counts and the downtimes. How the loop books prediction outcomes is not
// pinned here.
func TestClosedLoopGolden(t *testing.T) {
	type e3 struct {
		With, Without, Ratio         uint64 // math.Float64bits
		FailWith, FailWithout        int
		Warnings, Taken, Suppressed  int
		Prepared, Unprepared         int
		DownPrepared, DownUnprepared uint64 // math.Float64bits
	}
	wantE3 := e3{
		0x3fef9e79e79e79e8, 0x3fedb6db6db6db6e, 0x3fc5555555555543,
		21, 72,
		376, 293, 83,
		18, 3,
		0x4072c00000000000, 0x4082c00000000000,
	}
	bits := math.Float64bits
	res, err := RunMEA(DefaultMEAConfig())
	if err != nil {
		t.Fatal(err)
	}
	gotE3 := e3{
		bits(res.AvailabilityWithPFM), bits(res.AvailabilityWithout), bits(res.UnavailabilityRatio),
		res.FailuresWithPFM, res.FailuresWithout,
		res.Warnings, res.ActionsTaken, res.Suppressed,
		res.PreparedFailures, res.UnpreparedFailures,
		bits(res.MeanDowntimePrepared), bits(res.MeanDowntimeUnprepared),
	}
	if gotE3 != wantE3 {
		t.Errorf("E3:\n got %+v\nwant %+v", gotE3, wantE3)
	}

	wantE12 := []OscillationResult{
		{GuardOn: false, Availability: math.Float64frombits(0x3fdd5b05b05b05b0), Restarts: 1440},
		{GuardOn: true, Availability: math.Float64frombits(0x3fee5ceb240795cf), Restarts: 16, SuppressedByGuard: 1424},
	}
	for _, want := range wantE12 {
		got, err := RunOscillationAblation(5, 2, want.GuardOn)
		if err != nil {
			t.Fatal(err)
		}
		// Availability compares by its bits: == would let -0 pass for 0.
		if bits(got.Availability) != bits(want.Availability) || got.Restarts != want.Restarts ||
			got.SuppressedByGuard != want.SuppressedByGuard {
			t.Errorf("E12 guard=%v: got %+v, want %+v", want.GuardOn, got, want)
		}
	}
}
