package fleet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/ingest"
)

// errSource yields recs, then err.
type errSource struct {
	recs []ingest.Record
	end  error
}

func (s *errSource) Next() (ingest.Record, error) {
	if len(s.recs) == 0 {
		return ingest.Record{}, s.end
	}
	rec := s.recs[0]
	s.recs = s.recs[1:]
	return rec, nil
}

// TestStepperTieRule drives the stepper over a hand-built trace and logs
// what it hands on and which boundaries it runs, in order: a boundary runs
// before every event at or after it and after every failure at or before it
// — also when the trace writes an instant's failure after its events — and a
// held instant still reaches its cycle when the input ends or fails. A far
// jump costs at most maxCatchUp cycles, and a time the cadence cannot step
// to is refused.
func TestStepperTieRule(t *testing.T) {
	ev := func(at float64) Record { return ingest.Record{Event: ingest.Event{Tenant: "a", Time: at}} }
	fail := func(at float64) ingest.Record {
		return ingest.Record{Failure: true, Event: ingest.Event{Tenant: "a", Time: at}}
	}
	stop := errors.New("input failed")
	for _, c := range []struct {
		name string
		recs []ingest.Record
		end  error
		want []string
	}{
		{
			name: "ties and gaps",
			recs: []ingest.Record{ev(0), ev(60), fail(60), ev(60), ev(90), fail(120), ev(200)},
			end:  io.EOF,
			want: []string{"E0@0", "F60@60", "cycles [60]@60", "E60@60", "E60@60", "E90@90", "F120@120",
				"cycles 2 [120 … 180]@180", "E200@200", "end: EOF"},
		},
		{
			name: "input ends on a held instant",
			recs: []ingest.Record{ev(0), ev(60)},
			end:  io.EOF,
			want: []string{"E0@0", "cycles [60]@60", "E60@60", "end: EOF"},
		},
		{
			name: "input fails on a held instant",
			recs: []ingest.Record{ev(0), ev(60)},
			end:  stop,
			want: []string{"E0@0", "cycles [60]@60", "E60@60", "end: input failed"},
		},
		{
			// A jump runs the last maxCatchUp cadences' boundaries, then
			// steps on from there.
			name: "a far jump runs a day of boundaries",
			recs: []ingest.Record{ev(0), ev(1e9), ev(1e9 + 90)},
			end:  io.EOF,
			want: []string{"E0@0", "cycles 1440 [9.9991362e+08 … 9.9999996e+08]@9.9999996e+08", "E1e+09@1e+09",
				"cycles 2 [1.00000002e+09 … 1.00000008e+09]@1.00000008e+09", "E1.00000009e+09@1.00000009e+09", "end: EOF"},
		},
		{
			name: "an infinite time is refused",
			recs: []ingest.Record{ev(0), ev(math.Inf(1)), ev(60)},
			end:  io.EOF,
			want: []string{"E0@0", "end: record at time +Inf: the 60 s cadence cannot step to it"},
		},
		{
			name: "a time the cadence cannot step is refused",
			recs: []ingest.Record{ev(0), ev(1e300)},
			end:  io.EOF,
			want: []string{"E0@0", "end: record at time 1e+300: the 60 s cadence cannot step to it"},
		},
		{
			name: "a NaN failure time is refused",
			recs: []ingest.Record{fail(math.NaN())},
			end:  io.EOF,
			want: []string{"end: record at time NaN: the 60 s cadence cannot step to it"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var clock Clock
			var got []string
			st := NewStepper(&errSource{recs: c.recs, end: c.end}, 60, &clock, func(nows []float64) error {
				clock.Advance(nows[len(nows)-1])
				stack := fmt.Sprint(nows)
				if len(nows) > 1 {
					stack = fmt.Sprintf("%d [%g … %g]", len(nows), nows[0], nows[len(nows)-1])
				}
				got = append(got, fmt.Sprintf("cycles %s@%g", stack, clock.Now()))
				return nil
			})
			for {
				rec, err := st.Next()
				if err != nil {
					got = append(got, "end: "+err.Error())
					break
				}
				kind := "E"
				if rec.Failure {
					kind = "F"
				}
				got = append(got, fmt.Sprintf("%s%g@%g", kind, rec.Event.Time, clock.Now()))
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("got  %q\nwant %q", got, c.want)
			}
		})
	}
}
