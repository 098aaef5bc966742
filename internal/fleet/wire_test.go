package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	stdruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// decodeAll drains a wire stream, returning the records up to the first
// error (io.EOF counts as clean).
func decodeAll(data []byte) ([]Record, error) {
	return drain(NewReader(bytes.NewReader(data)))
}

// wireSampleTrace exercises every kind of row, dictionary reuse, unicode,
// empty strings, and non-finite floats.
func wireSampleTrace() []Record {
	return []Record{
		{Event: Event{Tenant: "t0000", Kind: runtime.KindSample, Time: 1.5, Variable: "cpu", Value: 0.25}},
		{Event: Event{Tenant: "t0001", Kind: runtime.KindSample, Time: 2, Variable: "cpu", Value: math.Inf(1)}},
		{Event: Event{Tenant: "t0000", Kind: runtime.KindSample, Time: 2.5, Variable: "mem_free", Value: -1e308}},
		{Event: Event{Tenant: "t0000", Kind: runtime.KindError, Time: 3,
			Error: eventlog.Event{Time: 3, Component: "db", Type: 7, Severity: 2, Message: "läuft nicht"}}},
		{Event: Event{Tenant: "t0001", Kind: runtime.KindError, Time: 4,
			Error: eventlog.Event{Time: 4, Component: "", Type: 0, Severity: 1, Message: ""}}},
		{Failure: true, Event: Event{Tenant: "t0001", Time: 5}},
		{Event: Event{Tenant: "t0000", Kind: runtime.KindSample, Time: 6, Variable: "cpu", Value: math.NaN()}},
		{Event: Event{Tenant: "t0000", Kind: runtime.KindSample, Time: math.Inf(1), Variable: "cpu", Value: math.Copysign(0, -1)}},
	}
}

// recordEqual compares records field by field, floats by their bits.
func recordEqual(a, b Record) bool {
	feq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Failure == b.Failure &&
		a.Event.Tenant == b.Event.Tenant &&
		a.Event.Kind == b.Event.Kind &&
		feq(a.Event.Time, b.Event.Time) &&
		a.Event.Variable == b.Event.Variable &&
		feq(a.Event.Value, b.Event.Value) &&
		a.Event.Error.Component == b.Event.Error.Component &&
		a.Event.Error.Type == b.Event.Error.Type &&
		a.Event.Error.Severity == b.Event.Error.Severity &&
		a.Event.Error.Message == b.Event.Error.Message &&
		feq(a.Event.Error.Time, b.Event.Error.Time)
}

func sameRecords(t *testing.T, label string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !recordEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestWireRoundTrip: encode → decode is the identity, the encoder refuses
// what the decoder would, and dictionaries plus narrow id columns make
// repeats cheap.
func TestWireRoundTrip(t *testing.T) {
	trace := wireSampleTrace()
	var buf bytes.Buffer
	if err := WriteWire(&buf, trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(WireMagic)) {
		t.Fatalf("stream starts %q, want the magic %q", buf.Bytes()[:4], WireMagic)
	}
	got, err := decodeAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "round trip", got, trace)

	var empty bytes.Buffer
	if err := WriteWire(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := decodeAll(empty.Bytes()); err != nil || len(got) != 0 || empty.String() != WireMagic {
		t.Errorf("empty trace: %q decodes to %d records, err %v; want the bare magic, cleanly empty", empty.Bytes(), len(got), err)
	}

	for name, rec := range map[string]Record{
		"NaN time":      {Event: Event{Tenant: "t", Kind: runtime.KindSample, Time: math.NaN(), Variable: "v"}},
		"severity 0":    {Event: Event{Tenant: "t", Kind: runtime.KindError, Error: eventlog.Event{Severity: 0}}},
		"severity 5":    {Event: Event{Tenant: "t", Kind: runtime.KindError, Error: eventlog.Event{Severity: 5}}},
		"negative type": {Event: Event{Tenant: "t", Kind: runtime.KindError, Error: eventlog.Event{Severity: 1, Type: -1}}},
		"huge type":     {Event: Event{Tenant: "t", Kind: runtime.KindError, Error: eventlog.Event{Severity: 1, Type: math.MaxInt32 + 1}}},
		"unknown kind":  {Event: Event{Tenant: "t", Kind: 7}},
		"long string":   {Event: Event{Tenant: strings.Repeat("x", maxWireString+1), Kind: runtime.KindSample}},
	} {
		w := NewWriter(io.Discard)
		if err := w.Write(rec); !errors.Is(err, runtime.ErrColumnar) {
			t.Errorf("%s: Write err = %v, want an ErrColumnar", name, err)
		}
		if err := w.Flush(); err == nil {
			t.Errorf("%s: Flush after the refused record err = nil, want the sticky error", name)
		}
	}

	// A sample of a known tenant and variable costs its kind, two one-byte
	// ids and two floats; a frame costs its header and four delta counts.
	one := []Record{{Event: Event{Tenant: "t", Kind: runtime.KindSample, Time: 1, Variable: "v", Value: 1}}}
	sizeOf := func(n int) int {
		var b bytes.Buffer
		if err := WriteWire(&b, slicesRepeat(one, n)); err != nil {
			t.Fatal(err)
		}
		return b.Len()
	}
	if got, want := sizeOf(1), 4+8+(1+2)+(1+2)+1+1+1*19; got != want {
		t.Errorf("one sample encodes to %d bytes, want %d", got, want)
	}
	if got, want := sizeOf(128)-sizeOf(1), 127*19; got != want {
		t.Errorf("127 more samples of the same stream cost %d bytes, want %d", got, want)
	}
	if got, want := sizeOf(256)-sizeOf(128), 8+4+128*19; got != want {
		t.Errorf("a second full frame costs %d bytes, want %d", got, want)
	}
}

func slicesRepeat(recs []Record, n int) []Record {
	out := make([]Record, 0, n*len(recs))
	for i := 0; i < n; i++ {
		out = append(out, recs...)
	}
	return out
}

// Raw frame assembly for the hostile-input cases: parts go in unchecked.

func f64s(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// rawDeltas encodes the four dictionary deltas.
func rawDeltas(deltas [4][]string) []byte {
	var b []byte
	for _, strs := range deltas {
		b = binary.AppendUvarint(b, uint64(len(strs)))
		for _, s := range strs {
			b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
		}
	}
	return b
}

// rawFrame puts a header announcing rows and the body's true length in front
// of the body's parts.
func rawFrame(rows int, parts ...[]byte) []byte {
	body := bytes.Join(parts, nil)
	b := binary.LittleEndian.AppendUint32(nil, uint32(rows))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	return append(b, body...)
}

// malformedFrames returns streams that are each wrong in one way. The frame
// cases are one valid three-row frame — an error, a sample and a failure mark
// of tenant "t" — with a single part replaced, so that each is refused by the
// one check its name says and by no other.
func malformedFrames(t *testing.T) map[string][]byte {
	t.Helper()
	base := map[string][]byte{
		"deltas": rawDeltas([4][]string{{"t"}, {"v"}, {"c"}, {"m"}}),
		"kinds":  {0, 1, 2}, "tenants": {0, 0, 0}, "times": f64s(1, 2, 3), "keys": {0, 0, 0},
		"values": f64s(0.5), "types": {7, 0, 0, 0}, "sevs": {2}, "msgs": {0},
	}
	frame := func(rows int, part string, with []byte, extra ...[]byte) []byte {
		var parts [][]byte
		for _, name := range []string{"deltas", "kinds", "tenants", "times", "keys", "values", "types", "sevs", "msgs"} {
			if name == part {
				parts = append(parts, with)
			} else {
				parts = append(parts, base[name])
			}
		}
		return append([]byte(WireMagic), rawFrame(rows, append(parts, extra...)...)...)
	}
	valid := frame(3, "", nil)
	if recs, err := decodeAll(valid); err != nil || len(recs) != 3 {
		t.Fatalf("the base frame decodes to %d records, err %v; want 3, clean", len(recs), err)
	}
	short := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(short[8:], uint32(len(valid)-12-1)) // body length one less than the columns take
	return map[string][]byte{
		"empty":                  {},
		"short magic":            []byte(WireMagic[:3]),
		"bad magic":              append([]byte("XXXX"), valid[4:]...),
		"retired PFW1":           append([]byte("PFW1"), valid[4:]...),
		"retired PFC1":           append([]byte("PFC1"), valid[4:]...),
		"truncated header":       valid[:4+5],
		"truncated mid":          valid[:len(valid)-3],
		"truncated float":        valid[:len(valid)-30], // inside the times column
		"unknown kind":           frame(3, "kinds", []byte{0, 1, 3}),
		"undefined tenant":       frame(3, "tenants", []byte{0, 200, 0}),
		"undefined variable":     frame(3, "keys", []byte{0, 200, 0}),
		"undefined component":    frame(3, "keys", []byte{200, 0, 0}),
		"undefined message":      frame(3, "msgs", []byte{200}),
		"error type over int32":  frame(3, "types", []byte{0, 0, 0, 0x80}),
		"severity 0":             frame(3, "sevs", []byte{0}),
		"severity 5":             frame(3, "sevs", []byte{5}),
		"NaN time":               frame(3, "times", f64s(1, math.NaN(), 3)),
		"more rows than bytes":   frame(1000, "", nil),
		"fewer rows than bytes":  frame(2, "", nil),
		"bytes after columns":    frame(3, "", nil, []byte{0}),
		"body shorter than rows": short,
		"huge string length":     frame(3, "deltas", rawDeltas([4][]string{{"t"}, {"v"}, {"c"}, {"m", strings.Repeat("x", maxWireString+1)}})),
		"truncated def":          frame(3, "deltas", append(rawDeltas([4][]string{{"t"}, {"v"}, {"c"}, {}})[:6], 1, 200, 'm')),
		"strings announced, not sent": frame(3, "deltas", append(rawDeltas([4][]string{{"t"}, {"v"}, {"c"}, {}})[:6],
			0x80, 0x80, 0x80, 0x80, 0x04)),
		"overlong varint": frame(3, "deltas", bytes.Repeat([]byte{0xff}, 11)),
		"body announced, not sent": append(append([]byte(WireMagic), 1, 0, 0, 0, 0, 0, 0, 0x40),
			1, 2, 3, 4, 5, 6, 7, 8),
	}
}

// TestWireMalformed: every way a stream can be wrong is an error — never a
// panic, a clean end or a huge allocation — and the frames before the bad
// one still yield their records.
func TestWireMalformed(t *testing.T) {
	var good bytes.Buffer
	if err := WriteWire(&good, wireSampleTrace()); err != nil {
		t.Fatal(err)
	}
	for name, data := range malformedFrames(t) {
		t.Run(name, func(t *testing.T) {
			recs, err := decodeAll(data)
			if !errors.Is(err, ErrFleet) || len(recs) != 0 {
				t.Fatalf("%d records, err %v; want none and a malformed-input error", len(recs), err)
			}
			if strings.HasPrefix(name, "retired") && !strings.Contains(err.Error(), "retired in PR 22") {
				t.Errorf("err = %v, want the retired format refused by name", err)
			}
			if len(data) < len(WireMagic) || string(data[:4]) != WireMagic {
				return
			}
			// The same bad frame behind a good stream.
			recs, err = decodeAll(append(good.Bytes(), data[4:]...))
			if !errors.Is(err, ErrFleet) || len(recs) != len(wireSampleTrace()) {
				t.Fatalf("behind a good frame: %d records, err %v; want that frame's %d and an error", len(recs), err, len(wireSampleTrace()))
			}
		})
	}
}

// loggenRecords is the record stream loggen -tenants n writes, on a shorter
// horizon.
func loggenRecords(t *testing.T, tenants int) []Record {
	t.Helper()
	m, err := scp.NewMulti(scp.MultiConfig{Tenants: tenants, BaseSeed: 7, Skew: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(2 * 86400 / float64(min(tenants, 8))); err != nil {
		t.Fatal(err)
	}
	return SCPRecords(m.Drain())
}

// TestWireColumnarOneFormat: the four ways through the one codec agree. For
// a one-tenant and a forty-tenant loggen stream, Writer → Reader returns the
// records it was given; for the one-tenant stream Writer → ReadColumnar and
// builder → WriteTo → ReadColumnar hold the same events and failure marks,
// and WriteTo → Reader returns the records again, in order, failure marks
// in place, floats and strings bit for bit — in fact WriteTo's bytes are the
// Writer's. ReadColumnar refuses the forty-tenant stream, naming two tenants.
func TestWireColumnarOneFormat(t *testing.T) {
	for _, tenants := range []int{1, 40} {
		recs := loggenRecords(t, tenants)
		failures := 0
		for _, r := range recs {
			if r.Failure {
				failures++
			}
		}
		if failures == 0 {
			t.Fatalf("%d tenants: the stream has no failure mark", tenants)
		}
		var wire bytes.Buffer
		if err := WriteWire(&wire, recs); err != nil {
			t.Fatal(err)
		}
		got, err := decodeAll(wire.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "Writer → Reader", got, recs)

		trace, err := runtime.ReadColumnar(bytes.NewReader(wire.Bytes()))
		if tenants > 1 {
			if !errors.Is(err, runtime.ErrColumnar) || !regexp.MustCompile(`tenants "t\d+" and "t\d+"`).MatchString(err.Error()) {
				t.Errorf("ReadColumnar of %d tenants: err = %v, want a refusal naming two of them", tenants, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		b := runtime.NewColumnarBuilder()
		i := 0
		for _, r := range recs {
			switch ev := r.Event; {
			case r.Failure:
				err = b.AddFailure(ev.Time)
			case ev.Kind == runtime.KindError:
				err = b.AddError(ev.Error)
			default:
				err = b.AddSample(ev.Time, ev.Variable, ev.Value)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !r.Failure {
				want := runtime.Event{Kind: r.Event.Kind, Time: r.Event.Time, Error: r.Event.Error, Variable: r.Event.Variable, Value: r.Event.Value}
				if got := trace.Event(i); got != want {
					t.Fatalf("Writer → ReadColumnar: event %d = %+v, want %+v", i, got, want)
				}
				i++
			}
		}
		built := b.Trace()
		if trace.Len() != i || !reflect.DeepEqual(trace.Failures, built.Failures) {
			t.Fatalf("Writer → ReadColumnar: %d events, %d failures; want %d, %d", trace.Len(), len(trace.Failures), i, len(built.Failures))
		}
		var cols bytes.Buffer
		if _, err := built.WriteTo(&cols); err != nil {
			t.Fatal(err)
		}
		reread, err := runtime.ReadColumnar(bytes.NewReader(cols.Bytes()))
		if err != nil || !reflect.DeepEqual(reread, built) {
			t.Fatalf("builder → WriteTo → ReadColumnar: err %v, or not the trace that was built", err)
		}
		cols.Reset()
		if _, err := trace.WriteTo(&cols); err != nil {
			t.Fatal(err)
		}
		if got, err = decodeAll(cols.Bytes()); err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "WriteTo → Reader", got, recs)
		if !bytes.Equal(cols.Bytes(), wire.Bytes()) {
			t.Errorf("WriteTo wrote %d bytes that are not the Writer's %d: a file is not the wire", cols.Len(), wire.Len())
		}
	}
}

// TestWireFrameSizes: 1, 127, 128 and 129 records make one, one, one and two
// frames and decode to themselves, as do a frame of failure marks only and a
// frame whose dictionary delta alone is longer than the read buffer.
func TestWireFrameSizes(t *testing.T) {
	frames := func(data []byte) (n int) {
		for data = data[len(WireMagic):]; len(data) > 0; n++ {
			data = data[8+binary.LittleEndian.Uint32(data[4:]):]
		}
		return n
	}
	sample := func(i int) Record {
		return Record{Event: Event{Tenant: "t", Kind: runtime.KindSample, Time: float64(i), Variable: "v", Value: float64(i)}}
	}
	for _, tc := range []struct {
		name   string
		n      int
		rec    func(i int) Record
		frames int
	}{
		{"1", 1, sample, 1}, {"127", 127, sample, 1}, {"128", 128, sample, 1}, {"129", 129, sample, 2},
		{"failure marks only", 100, func(i int) Record { return Record{Failure: true, Event: Event{Tenant: "t", Time: float64(i)}} }, 1},
		{"delta longer than the buffer", 128, func(i int) Record {
			return Record{Event: Event{Tenant: "t", Kind: runtime.KindError, Time: float64(i), Error: eventlog.Event{
				Time: float64(i), Component: "c", Severity: 1, Message: strings.Repeat("m", 600) + string(rune('0'+i)),
			}}}
		}, 1},
	} {
		recs := make([]Record, tc.n)
		for i := range recs {
			recs[i] = tc.rec(i)
		}
		var buf bytes.Buffer
		if err := WriteWire(&buf, recs); err != nil {
			t.Fatal(err)
		}
		if got := frames(buf.Bytes()); got != tc.frames {
			t.Errorf("%s: %d frames, want %d", tc.name, got, tc.frames)
		}
		if tc.name == "delta longer than the buffer" && buf.Len() <= wireBufSize {
			t.Fatalf("%s: the stream is only %d bytes", tc.name, buf.Len())
		}
		got, err := decodeAll(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameRecords(t, tc.name, got, recs)
	}
}

// TestRetiredMagicRefused: a file or a connection that leads with the magic
// of a binary format this repository no longer reads is refused as that —
// by OpenTrace's source on its first record, by the listener as one counted
// decode error and a closed connection — not parsed as text.
func TestRetiredMagicRefused(t *testing.T) {
	for _, magic := range []string{"PFW1", "PFC1"} {
		payload := []byte(magic + "\x01\x00\x02t0\x05\x00\x00\x00\x00\x00\x00\x00\x00\x00")
		path := filepath.Join(t.TempDir(), "old.wire")
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		src, closer, err := OpenTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = src.Next()
		closer.Close()
		if !errors.Is(err, ErrFleet) || !strings.Contains(err.Error(), magic) || !strings.Contains(err.Error(), "retired in PR 22, regenerate with `loggen`") {
			t.Errorf("OpenTrace(%s…).Next: err = %v, want the format refused by name", magic, err)
		}

		ls, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", ls.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s on a connection: the peer's read ended with %v, want the listener's close", magic, err)
		}
		if got := ls.DecodeErrors(); got != 1 {
			t.Errorf("%s on a connection: %d decode errors, want 1", magic, got)
		}
		conn.Close()
		ls.Close()
	}
}

// FuzzWireDecode: the one frame decoder, through both its callers, never
// panics, hangs or over-allocates on arbitrary input — it yields records or
// an error, and commits memory in proportion to the bytes it was given, not
// to the counts and lengths they announce. Run long-form with:
// go test -run '^$' -fuzz FuzzWireDecode ./internal/fleet/
func FuzzWireDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteWire(&buf, wireSampleTrace()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(WireMagic))
	f.Add([]byte{})
	f.Add(append([]byte(WireMagic), 1, 0, 0, 0, 0, 0, 0, 0x40, 1, 2, 3, 4, 5, 6, 7, 8)) // 2³⁰ bytes announced, 8 sent
	f.Add([]byte("PFW1\x01\x00\x02t0\x05\x00\x00\x00\x00\x00\x00\x00\x00\x00"))         // a retired format
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(data))
		var err error
		for rec := (Record{}); err == nil; rec, err = r.Next() {
			// Strings come out of the dictionaries, which hold nothing over
			// the cap.
			if max(len(rec.Event.Tenant), len(rec.Event.Variable), len(rec.Event.Error.Component), len(rec.Event.Error.Message)) > maxWireString {
				t.Fatalf("decoded string exceeds cap: %+v", rec)
			}
		}
		if err != io.EOF && !errors.Is(err, ErrFleet) {
			t.Fatalf("Reader: err = %v, want io.EOF or a malformed-input error", err)
		}
		trace, cerr := runtime.ReadColumnar(bytes.NewReader(data))
		stdruntime.ReadMemStats(&after)
		// The two read buffers are the fixed part; columns, dictionaries and
		// the copying path's scratch are the rest.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+96*len(data)); got > limit {
			t.Fatalf("%d input bytes made the decoder allocate %d (limit %d)", len(data), got, limit)
		}
		if cerr != nil {
			if !errors.Is(cerr, runtime.ErrColumnar) {
				t.Fatalf("ReadColumnar: err = %v, want an ErrColumnar", cerr)
			}
			return
		}
		if err != io.EOF {
			t.Fatalf("ReadColumnar accepted a stream the Reader refused: %v", err)
		}
		for i := 0; i < trace.Len(); i++ {
			_ = trace.Event(i)
		}
	})
}
