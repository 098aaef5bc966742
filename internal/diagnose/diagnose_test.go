package diagnose

import (
	"testing"

	"repro/internal/eventlog"
)

func win(events ...eventlog.Event) []eventlog.Event { return events }

func ev(comp string, typ int) eventlog.Event {
	return eventlog.Event{Component: comp, Type: typ, Severity: eventlog.SeverityError}
}

// logOf lays the windows out in one log, window k in [100k, 100k+100), and
// returns each window's [lo, hi) index range.
func logOf(t *testing.T, windows ...[]eventlog.Event) (*eventlog.Log, [][2]int) {
	t.Helper()
	l := eventlog.NewLog()
	ranges := make([][2]int, len(windows))
	for k, w := range windows {
		ranges[k][0] = l.Len()
		for i, e := range w {
			e.Time = float64(100*k + i)
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		ranges[k][1] = l.Len()
	}
	return l, ranges
}

// diagnose ranks one warning window held in a log of its own.
func diagnose(t *testing.T, d *Diagnoser, window []eventlog.Event) []Suspect {
	t.Helper()
	l, _ := logOf(t, window)
	return d.DiagnoseRange(l, 0, 100)
}

func trainedDiagnoser(t *testing.T) *Diagnoser {
	t.Helper()
	// Failures are preceded by db errors of type 1/2; healthy windows show
	// net chatter of type 8/9.
	l, r := logOf(t,
		win(ev("db", 1), ev("db", 2), ev("net", 8)),
		win(ev("db", 1), ev("db", 1)),
		win(ev("db", 2), ev("db", 2), ev("db", 1)),
		win(ev("net", 8), ev("net", 9)),
		win(ev("net", 9)),
		win(ev("net", 8), ev("app", 9)),
	)
	d, err := TrainOnRanges(l, r[:3], r[3:], 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrainValidation(t *testing.T) {
	l, r := logOf(t, win(ev("a", 1)))
	if _, err := TrainOnRanges(l, nil, nil, 1); err == nil {
		t.Fatal("empty training accepted")
	}
	if _, err := TrainOnRanges(l, r, nil, 1); err == nil {
		t.Fatal("missing non-failure windows accepted")
	}
}

func TestDiagnoseRanksCulprit(t *testing.T) {
	d := trainedDiagnoser(t)
	suspects := diagnose(t, d, win(ev("db", 1), ev("db", 2), ev("net", 8)))
	if len(suspects) != 2 {
		t.Fatalf("suspects = %+v", suspects)
	}
	if suspects[0].Component != "db" {
		t.Fatalf("top suspect = %q", suspects[0].Component)
	}
	if suspects[0].Score <= suspects[1].Score {
		t.Fatal("ranking not descending")
	}
	if suspects[0].Events != 2 {
		t.Fatalf("db event count = %d", suspects[0].Events)
	}
	if l, _ := logOf(t, win(ev("db", 1))); d.TopSuspectRange(l, 0, 100) != "db" {
		t.Fatal("TopSuspectRange wrong")
	}
}

func TestDiagnoseEmptyWindow(t *testing.T) {
	d := trainedDiagnoser(t)
	if s := diagnose(t, d, nil); len(s) != 0 {
		t.Fatalf("empty window suspects = %+v", s)
	}
	if d.TopSuspectRange(eventlog.NewLog(), 0, 100) != "" {
		t.Fatal("empty TopSuspectRange should be empty string")
	}
}

func TestDiagnoseUnseenComponent(t *testing.T) {
	d := trainedDiagnoser(t)
	suspects := diagnose(t, d, win(ev("ghost", 99)))
	if len(suspects) != 1 || suspects[0].Component != "ghost" {
		t.Fatalf("unseen suspects = %+v", suspects)
	}
	// Unseen evidence must not look more suspicious than the learned
	// culprit signature.
	culprit := diagnose(t, d, win(ev("db", 1)))
	if suspects[0].Score >= culprit[0].Score {
		t.Fatalf("unseen %g ≥ culprit %g", suspects[0].Score, culprit[0].Score)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	d := trainedDiagnoser(t)
	// Two components with identical evidence rank alphabetically.
	a := diagnose(t, d, win(ev("zeta", 99), ev("alpha", 99)))
	if a[0].Component != "alpha" {
		t.Fatalf("tie break = %q", a[0].Component)
	}
}

func TestCollectWindows(t *testing.T) {
	l := eventlog.NewLog()
	add := func(t_ float64, comp string, typ int) {
		_ = l.Append(eventlog.Event{Time: t_, Component: comp, Type: typ, Severity: eventlog.SeverityError, Message: "m"})
	}
	// Pre-failure burst before the failure at t=1000 (lead 100, window 200:
	// events in [700, 900) count).
	add(710, "db", 1)
	add(750, "db", 2)
	add(800, "db", 1)
	// Healthy chatter far away.
	for tt := 3000.0; tt < 6000; tt += 250 {
		add(tt, "net", 8)
	}
	cfg := eventlog.ExtractConfig{
		DataWindow:       200,
		LeadTime:         100,
		MinEvents:        1,
		NonFailureStride: 400,
	}
	fail, non, err := CollectWindowRanges(l, []float64{1000}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fail) != 1 || fail[0] != [2]int{0, 3} {
		t.Fatalf("failure windows = %v", fail)
	}
	if len(non) == 0 {
		t.Fatal("no non-failure windows")
	}
	for _, w := range non {
		for i := w[0]; i < w[1]; i++ {
			if e := l.At(i); e.Component != "net" {
				t.Fatalf("non-failure window polluted: %+v", e)
			}
		}
	}
	if _, _, err := CollectWindowRanges(eventlog.NewLog(), nil, cfg); err == nil {
		t.Fatal("empty log accepted")
	}
	bad := cfg
	bad.DataWindow = 0
	if _, _, err := CollectWindowRanges(l, nil, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}
