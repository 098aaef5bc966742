package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	stdruntime "runtime"
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
	t.Run("bad magic", func(t *testing.T) {
		raw := append([]byte(nil), good.Bytes()...)
		raw[0] = 'X'
		if _, err := ReadColumnar(bytes.NewReader(raw)); !errors.Is(err, ErrColumnar) {
			t.Fatalf("err = %v, want ErrColumnar", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		raw := good.Bytes()[:good.Len()/2]
		if _, err := ReadColumnar(bytes.NewReader(raw)); !errors.Is(err, ErrColumnar) {
			t.Fatalf("err = %v, want ErrColumnar", err)
		}
	})
	t.Run("dict index out of range", func(t *testing.T) {
		// Corrupt a Keys entry to point past the dictionaries. The keys
		// column starts after magic, dicts, count uvarint and the times and
		// kinds columns; easier to corrupt via the struct and re-encode.
		c := buildTestTrace(t)
		c.Keys[0] = 99
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadColumnar(&buf); !errors.Is(err, ErrColumnar) {
			t.Fatalf("err = %v, want ErrColumnar", err)
		}
	})
	t.Run("time disorder", func(t *testing.T) {
		c := buildTestTrace(t)
		c.Times[2] = 0.5
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadColumnar(&buf); !errors.Is(err, ErrColumnar) {
			t.Fatalf("err = %v, want ErrColumnar", err)
		}
	})
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

// TestColumnarRoundTripLarge spans several read chunks, so the leading
// column's grow-as-it-arrives path is part of the round trip.
func TestColumnarRoundTripLarge(t *testing.T) {
	orig := synthTrace(3*columnarChunk + 17)
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
}

// FuzzReadColumnar: whatever the bytes, ReadColumnar returns either an
// ErrColumnar or a trace every row of which materializes — never a panic —
// and commits memory in proportion to the input, not to the counts the
// input announces.
func FuzzReadColumnar(f *testing.F) {
	var buf bytes.Buffer
	if _, err := buildTestTrace(f).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{0, 3, 4, 12, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	bad := buildTestTrace(f)
	bad.Keys[0] = 99 // dictionary index out of range
	buf = bytes.Buffer{}
	if _, err := bad.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("PFC1\xff\xff\xff\x07"))                     // 2^24 variables, none present
	f.Add([]byte("PFC1\x00\x00\x00\x80\x80\x80\x80\x04"))     // 2^30 events, none present
	f.Add([]byte("PFC1\x00\x00\x00\x00\x80\x80\x80\x80\x04")) // 2^30 failures, none present
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		c, err := ReadColumnar(bytes.NewReader(data))
		stdruntime.ReadMemStats(&after)
		// The reader's buffer and one chunk per unproven count are the fixed
		// part; the decoded columns and the scratch block are the rest.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+64*len(data)); got > limit {
			t.Fatalf("%d input bytes made ReadColumnar allocate %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrColumnar) {
				t.Fatalf("err = %v, want an ErrColumnar", err)
			}
			return
		}
		for i := 0; i < c.Len(); i++ {
			_ = c.Event(i)
		}
	})
}
