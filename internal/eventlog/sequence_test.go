package eventlog

import (
	"math"
	"testing"
)

func defaultCfg() ExtractConfig {
	return ExtractConfig{
		DataWindow:       10,
		LeadTime:         5,
		MinEvents:        1,
		NonFailureStride: 10,
	}
}

func TestExtractFailureSequences(t *testing.T) {
	// Failure at t=100 with Δtl=5, Δtd=10: failure window is [85, 95).
	l := buildLog(t,
		ev(84, "a", 1, SeverityError),  // before window
		ev(86, "a", 2, SeverityError),  // in window
		ev(90, "b", 3, SeverityError),  // in window
		ev(95, "a", 4, SeverityError),  // at window end: excluded (half-open)
		ev(300, "a", 5, SeverityError), // far away, feeds non-failure windows
	)
	fail, _, err := Extract(l, []float64{100}, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fail) != 1 {
		t.Fatalf("failure sequences = %d", len(fail))
	}
	s := fail[0]
	if s.Len() != 2 || s.Types[0] != 2 || s.Types[1] != 3 {
		t.Fatalf("failure sequence = %+v", s)
	}
	if !s.Label {
		t.Fatal("failure sequence not labeled")
	}
	// Re-based times.
	if s.Times[0] != 0 || s.Times[1] != 4 {
		t.Fatalf("re-based times = %v", s.Times)
	}
}

func TestExtractNonFailureAvoidsFailures(t *testing.T) {
	l := NewLog()
	for tt := 0.0; tt <= 500; tt += 2 {
		if err := l.Append(ev(tt, "a", 1, SeverityError)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := defaultCfg()
	_, nonFail, err := Extract(l, []float64{250}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(nonFail) == 0 {
		t.Fatal("no non-failure sequences extracted")
	}
	// Default guard is Δtd+Δtl = 15: no non-failure window may have its
	// prediction point within 15 s of the failure at 250. Since windows are
	// re-based we check by reconstructing: window start = stride index.
	for i, s := range nonFail {
		if s.Label {
			t.Fatalf("non-failure sequence %d labeled as failure", i)
		}
	}
	// With stride 10, windows starting at 230 and 240 would have
	// prediction points 245, 255 — both within the guard of 250, so the
	// count must be smaller than the unguarded window count.
	unguarded := 0
	for start := 0.0; start+cfg.DataWindow <= 500-0; start += cfg.NonFailureStride {
		unguarded++
	}
	if len(nonFail) >= unguarded {
		t.Fatalf("guard did not exclude windows near the failure: %d ≥ %d", len(nonFail), unguarded)
	}
}

func TestExtractMinEvents(t *testing.T) {
	l := buildLog(t,
		ev(86, "a", 2, SeverityError),
		ev(300, "a", 5, SeverityError),
	)
	cfg := defaultCfg()
	cfg.MinEvents = 2
	fail, _, err := Extract(l, []float64{100}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fail) != 0 {
		t.Fatal("sequence below MinEvents kept")
	}
}

func TestExtractValidation(t *testing.T) {
	l := buildLog(t, ev(1, "a", 1, SeverityError))
	bad := []ExtractConfig{
		{DataWindow: 0, LeadTime: 1, NonFailureStride: 1},
		{DataWindow: 1, LeadTime: -1, NonFailureStride: 1},
		{DataWindow: 1, LeadTime: 1, NonFailureStride: 0},
		{DataWindow: 1, LeadTime: 1, NonFailureStride: 1, MinEvents: -1},
		{DataWindow: 1, LeadTime: 1, NonFailureStride: 1, NonFailureGuard: -2},
		{DataWindow: math.NaN(), LeadTime: 1, NonFailureStride: 1},
	}
	for i, cfg := range bad {
		if _, _, err := Extract(l, nil, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, _, err := Extract(NewLog(), nil, defaultCfg()); err == nil {
		t.Fatal("empty log accepted")
	}
}

func TestSequenceLen(t *testing.T) {
	if n := (Sequence{Times: []float64{0, 2, 5}, Types: []int{1, 2, 3}}).Len(); n != 3 {
		t.Fatalf("three-event sequence Len = %d", n)
	}
	if (Sequence{}).Len() != 0 {
		t.Fatal("empty sequence Len != 0")
	}
}

func TestSlidingWindow(t *testing.T) {
	l := buildLog(t,
		ev(1, "a", 1, SeverityError),
		ev(8, "a", 2, SeverityError),
		ev(9, "a", 3, SeverityError),
	)
	s := SlidingWindow(l, 10, 5)
	if s.Len() != 2 || s.Types[0] != 2 {
		t.Fatalf("SlidingWindow = %+v", s)
	}
	if s.Times[0] != 0 || s.Times[1] != 1 {
		t.Fatalf("re-based sliding window times = %v", s.Times)
	}
}
