package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/eventlog"
)

// buildTestTrace assembles a small mixed trace through the builder.
func buildTestTrace(t testing.TB) *ColumnarTrace {
	t.Helper()
	b := NewColumnarBuilder()
	b.Grow(16)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddError(eventlog.Event{Time: 1, Component: "disk", Type: 3, Severity: eventlog.SeverityError, Message: "io stall"}))
	must(b.AddSample(1, "cpu", 0.42))
	must(b.AddSample(1, "mem_free", 512))
	must(b.AddError(eventlog.Event{Time: 2.5, Component: "net", Type: 7, Severity: eventlog.SeverityCritical, Message: "link flap"}))
	must(b.AddError(eventlog.Event{Time: 2.5, Component: "disk", Type: 3, Severity: eventlog.SeverityError, Message: "io stall"}))
	must(b.AddSample(3, "cpu", 0.9))
	must(b.AddFailure(2.6))
	must(b.AddFailure(10))
	return b.Trace()
}

func TestColumnarRoundTrip(t *testing.T) {
	orig := buildTestTrace(t)
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadColumnar(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip mismatch:\n  wrote %+v\n  read  %+v", orig, got)
	}
}

func TestColumnarEventReconstruction(t *testing.T) {
	c := buildTestTrace(t)
	want := []Event{
		{Kind: KindError, Time: 1, Error: eventlog.Event{Time: 1, Component: "disk", Type: 3, Severity: eventlog.SeverityError, Message: "io stall"}},
		{Kind: KindSample, Time: 1, Variable: "cpu", Value: 0.42},
		{Kind: KindSample, Time: 1, Variable: "mem_free", Value: 512},
		{Kind: KindError, Time: 2.5, Error: eventlog.Event{Time: 2.5, Component: "net", Type: 7, Severity: eventlog.SeverityCritical, Message: "link flap"}},
		{Kind: KindError, Time: 2.5, Error: eventlog.Event{Time: 2.5, Component: "disk", Type: 3, Severity: eventlog.SeverityError, Message: "io stall"}},
		{Kind: KindSample, Time: 3, Variable: "cpu", Value: 0.9},
	}
	if c.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", c.Len(), len(want))
	}
	for i, w := range want {
		if got := c.Event(i); got != w {
			t.Errorf("Event(%d) = %+v, want %+v", i, got, w)
		}
	}
	ne, ns := c.CountKinds()
	if ne != 3 || ns != 3 {
		t.Fatalf("CountKinds() = (%d, %d), want (3, 3)", ne, ns)
	}
	// Dictionaries intern repeats: two distinct components, one repeated
	// message, two variables.
	if len(c.Components) != 2 || len(c.Messages) != 2 || len(c.Vars) != 2 {
		t.Fatalf("dictionaries = %d comps, %d msgs, %d vars; want 2, 2, 2",
			len(c.Components), len(c.Messages), len(c.Vars))
	}
}

func TestColumnarEventZeroAlloc(t *testing.T) {
	c := buildTestTrace(t)
	var sink Event
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < c.Len(); i++ {
			sink = c.Event(i)
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Event() allocates %.1f per full-trace pass, want 0", allocs)
	}
}

func TestColumnarBuilderRejects(t *testing.T) {
	cases := []struct {
		name string
		add  func(*ColumnarBuilder) error
	}{
		{"time regression", func(b *ColumnarBuilder) error {
			if err := b.AddSample(5, "cpu", 1); err != nil {
				return nil // setup must pass
			}
			return b.AddError(eventlog.Event{Time: 4, Component: "c", Type: 1, Severity: eventlog.SeverityInfo})
		}},
		{"NaN time", func(b *ColumnarBuilder) error {
			return b.AddSample(math.NaN(), "cpu", 1)
		}},
		{"bad severity", func(b *ColumnarBuilder) error {
			return b.AddError(eventlog.Event{Time: 1, Component: "c", Type: 1, Severity: 9})
		}},
		{"type the frame cannot carry", func(b *ColumnarBuilder) error {
			return b.AddError(eventlog.Event{Time: 1, Component: "c", Type: -1, Severity: eventlog.SeverityInfo})
		}},
		{"failure regression", func(b *ColumnarBuilder) error {
			if err := b.AddFailure(7); err != nil {
				return nil
			}
			return b.AddFailure(6)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.add(NewColumnarBuilder()); !errors.Is(err, ErrColumnar) {
				t.Fatalf("err = %v, want ErrColumnar", err)
			}
		})
	}
}

func TestReadColumnarRejectsCorruption(t *testing.T) {
	var good bytes.Buffer
	if _, err := buildTestTrace(t).WriteTo(&good); err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T, raw []byte, mention string) {
		t.Helper()
		_, err := ReadColumnar(bytes.NewReader(raw))
		if !errors.Is(err, ErrColumnar) || !strings.Contains(err.Error(), mention) {
			t.Fatalf("err = %v, want an ErrColumnar about %q", err, mention)
		}
	}
	t.Run("bad magic", func(t *testing.T) {
		raw := append([]byte(nil), good.Bytes()...)
		raw[0] = 'X'
		refused(t, raw, "bad magic")
	})
	t.Run("truncated", func(t *testing.T) {
		refused(t, good.Bytes()[:good.Len()/2], "truncated")
		refused(t, good.Bytes()[:len(FrameMagic)+3], "truncated")
		refused(t, nil, "missing magic")
	})
	t.Run("dict index out of range", func(t *testing.T) {
		// The trace is one frame of 8 rows — 3 errors, 3 samples, 2 failure
		// marks — that ends with the keys column (8 one-byte ids), the
		// values (3 × 8) and the error columns (3 × (4+1+1)): the first key
		// is the first error row's component.
		raw := append([]byte(nil), good.Bytes()...)
		raw[len(raw)-(8+3*8+3*6)] = 99
		refused(t, raw, "component id 99")
	})
	t.Run("time disorder", func(t *testing.T) {
		for _, spoil := range []func(*ColumnarTrace){
			func(c *ColumnarTrace) { c.Times[2] = 0.5 },  // an event before its predecessor
			func(c *ColumnarTrace) { c.Failures[1] = 2 }, // a failure mark before its predecessor
		} {
			c := buildTestTrace(t)
			spoil(c)
			var buf bytes.Buffer
			if _, err := c.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			refused(t, buf.Bytes(), "times run backwards")
		}
	})
	t.Run("two tenants", func(t *testing.T) {
		var buf bytes.Buffer
		var enc FrameEncoder
		for i, tenant := range []string{"a", "a", "b"} {
			if err := enc.Add(&buf, tenant, Event{Kind: KindSample, Time: float64(i), Variable: "cpu"}, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		refused(t, buf.Bytes(), `tenants "a" and "b"`)
	})
}

// TestRetiredMagicRefused: a file in a binary format this repository no
// longer reads is refused by that format's name.
func TestRetiredMagicRefused(t *testing.T) {
	for _, magic := range []string{"PFW1", "PFC1"} {
		_, err := ReadColumnar(strings.NewReader(magic + "\x00\x00\x00\x00\x00"))
		if !errors.Is(err, ErrColumnar) || !strings.Contains(err.Error(), magic+" format was retired in PR 22, regenerate with `loggen`") {
			t.Errorf("ReadColumnar(%s…): err = %v, want the format refused by name", magic, err)
		}
	}
}

// synthTrace builds a large synthetic trace shaped like an SCP recording
// (bursty errors over periodic samples) for the decode benchmarks.
func synthTrace(n int) *ColumnarTrace {
	b := NewColumnarBuilder()
	b.Grow(n)
	vars := []string{"cpu", "mem_free", "swap", "io"}
	for i := 0; i < n; i++ {
		t := float64(i)
		if i%10 == 0 {
			_ = b.AddError(eventlog.Event{
				Time: t, Component: fmt.Sprintf("comp-%d", i%7), Type: i % 5,
				Severity: eventlog.Severity(1 + i%4), Message: "synthetic burst",
			})
		} else {
			_ = b.AddSample(t, vars[i%len(vars)], float64(i%100)/100)
		}
	}
	for i := 0; i < n/1000; i++ {
		_ = b.AddFailure(float64(i * 1000))
	}
	return b.Trace()
}

// TestColumnarRoundTripLarge spans thousands of frames and several refills
// of the read buffer, so the columns' growth, the failure marks' split and
// the final trim to size are all part of the round trip; the trace comes back
// holding no more memory than its rows take.
func TestColumnarRoundTripLarge(t *testing.T) {
	orig := synthTrace(3<<16 + 17)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumnar(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("large round trip mismatch")
	}
	if slack := cap(got.Times) - len(got.Times); slack > len(got.Times)/100 {
		t.Errorf("the times column keeps %d spare cells for %d rows", slack, len(got.Times))
	}
}
