package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/eventlog"
	"repro/internal/runtime"
)

// minWireBuf is the smallest read buffer bufio grants: shorter than an error
// frame's fixed-width run, so at this size even string-free frames cross the
// buffer's edge and some take the copying path.
const minWireBuf = 16

// oracleReader is the reader this package shipped before frames were parsed
// in place: one interface call per byte, one allocation per float. It stays
// here, like eventlog's aosLog, as the oracle the in-place Reader must agree
// with on every input.
type oracleReader struct {
	r       *bufio.Reader
	tenants []string
	vars    []string
	started bool
}

func (r *oracleReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, badRecord("wire: truncated varint: %v", err)
	}
	return v, nil
}

func (r *oracleReader) f64() (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		return 0, badRecord("wire: truncated float: %v", err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

func (r *oracleReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxWireString {
		return "", badRecord("wire: string length %d exceeds cap", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return "", badRecord("wire: truncated string: %v", err)
	}
	return string(buf), nil
}

func oracleLookup(dict []string, id uint64, what string) (string, error) {
	if id >= uint64(len(dict)) {
		return "", badRecord("wire: undefined %s id %d", what, id)
	}
	return dict[id], nil
}

func (r *oracleReader) define(dict *[]string, what string) error {
	id, err := r.uvarint()
	if err != nil {
		return err
	}
	if id != uint64(len(*dict)) {
		return badRecord("wire: %s id %d out of order (want %d)", what, id, len(*dict))
	}
	s, err := r.str()
	if err != nil {
		return err
	}
	*dict = append(*dict, s)
	return nil
}

func (r *oracleReader) Next() (Record, error) {
	if !r.started {
		var magic [4]byte
		if _, err := io.ReadFull(r.r, magic[:]); err != nil {
			return Record{}, badRecord("wire: missing magic: %v", err)
		}
		if string(magic[:]) != WireMagic {
			return Record{}, badRecord("wire: bad magic %q", magic[:])
		}
		r.started = true
	}
	for {
		frame, err := r.r.ReadByte()
		if err == io.EOF {
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, err
		}
		switch frame {
		case frameDefTenant:
			if err := r.define(&r.tenants, "tenant"); err != nil {
				return Record{}, err
			}
		case frameDefVar:
			if err := r.define(&r.vars, "variable"); err != nil {
				return Record{}, err
			}
		case frameSample:
			tid, err := r.uvarint()
			if err != nil {
				return Record{}, err
			}
			vid, err := r.uvarint()
			if err != nil {
				return Record{}, err
			}
			tenant, err := oracleLookup(r.tenants, tid, "tenant")
			if err != nil {
				return Record{}, err
			}
			variable, err := oracleLookup(r.vars, vid, "variable")
			if err != nil {
				return Record{}, err
			}
			t, err := r.f64()
			if err != nil {
				return Record{}, err
			}
			v, err := r.f64()
			if err != nil {
				return Record{}, err
			}
			return Record{Event: Event{
				Tenant: tenant, Kind: runtime.KindSample, Time: t, Variable: variable, Value: v,
			}}, nil
		case frameError:
			tid, err := r.uvarint()
			if err != nil {
				return Record{}, err
			}
			tenant, err := oracleLookup(r.tenants, tid, "tenant")
			if err != nil {
				return Record{}, err
			}
			t, err := r.f64()
			if err != nil {
				return Record{}, err
			}
			typ, err := r.uvarint()
			if err != nil {
				return Record{}, err
			}
			if typ > math.MaxInt32 {
				return Record{}, badRecord("wire: error type %d out of range", typ)
			}
			sev, err := r.r.ReadByte()
			if err != nil {
				return Record{}, badRecord("wire: truncated severity: %v", err)
			}
			comp, err := r.str()
			if err != nil {
				return Record{}, err
			}
			msg, err := r.str()
			if err != nil {
				return Record{}, err
			}
			return Record{Event: Event{
				Tenant: tenant, Kind: runtime.KindError, Time: t,
				Error: eventlog.Event{
					Time: t, Component: comp, Type: int(typ),
					Severity: eventlog.Severity(sev), Message: msg,
				},
			}}, nil
		case frameFailure:
			tid, err := r.uvarint()
			if err != nil {
				return Record{}, err
			}
			tenant, err := oracleLookup(r.tenants, tid, "tenant")
			if err != nil {
				return Record{}, err
			}
			t, err := r.f64()
			if err != nil {
				return Record{}, err
			}
			return Record{Failure: true, Event: Event{Tenant: tenant, Time: t}}, nil
		default:
			return Record{}, badRecord("wire: unknown frame type 0x%02x", frame)
		}
	}
}

// drain reads src to its end: the records before the first error, and that
// error (nil for a clean io.EOF).
func drain(src Source) ([]Record, error) {
	var out []Record
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// sameDecode fails unless the in-place reader (over src, with a read buffer
// of size bytes) yields exactly the oracle's records and ends the same way:
// cleanly, or with a malformed-input error.
func sameDecode(t *testing.T, label string, data []byte, src io.Reader, size int) {
	t.Helper()
	want, wantErr := drain(&oracleReader{r: bufio.NewReader(bytes.NewReader(data))})
	got, gotErr := drain(newReaderSize(src, size))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, oracle err = %v", label, gotErr, wantErr)
	}
	if gotErr != nil && !errors.Is(gotErr, ErrFleet) {
		t.Fatalf("%s: err = %v, want a malformed-input error", label, gotErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d records, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if !recordEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d = %+v, oracle %+v", label, i, got[i], want[i])
		}
	}
}

// boundaryTrace mixes every frame type with strings of many lengths, so
// that frame edges fall at every offset of a small read buffer.
func boundaryTrace() []Record {
	recs := wireSampleTrace()
	for i := 0; i < 40; i++ {
		tenant := "t" + strings.Repeat("x", i%7)
		recs = append(recs,
			Record{Event: Event{Tenant: tenant, Kind: runtime.KindSample, Time: float64(i), Variable: "v" + strings.Repeat("y", i%5), Value: float64(i) / 3}},
			Record{Event: Event{Tenant: tenant, Kind: runtime.KindError, Time: float64(i),
				Error: eventlog.Event{Time: float64(i), Component: strings.Repeat("c", i%4), Type: i * 1000, Severity: eventlog.Severity(i % 3), Message: strings.Repeat("m", i)}}},
			Record{Failure: true, Event: Event{Tenant: tenant, Time: float64(i)}},
		)
	}
	return recs
}

// chunkReader hands out at most n bytes a Read, so that refills stop inside
// frames wherever n puts them.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// TestWireBufferBoundary: frames straddling the read buffer's edge, and
// reads that stop mid-frame, decode exactly as the oracle decodes the whole
// stream at once — for every buffer size over a range wider than any frame
// and every read granularity up to it.
func TestWireBufferBoundary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWire(&buf, boundaryTrace()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for size := minWireBuf; size <= minWireBuf+80; size++ {
		sameDecode(t, "whole reads", data, bytes.NewReader(data), size)
		sameDecode(t, "one-byte reads", data, iotest.OneByteReader(bytes.NewReader(data)), size)
	}
	for n := 1; n <= 150; n++ {
		sameDecode(t, "chunked reads", data, &chunkReader{r: bytes.NewReader(data), n: n}, minWireBuf)
		sameDecode(t, "chunked reads", data, &chunkReader{r: bytes.NewReader(data), n: n}, 4096)
	}
}

// TestWireTruncatedEverywhere: a stream cut at any byte yields the oracle's
// records and the oracle's verdict — clean only at a frame boundary.
func TestWireTruncatedEverywhere(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWire(&buf, boundaryTrace()[:30]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut <= len(data); cut++ {
		sameDecode(t, "cut", data[:cut], bytes.NewReader(data[:cut]), minWireBuf)
		sameDecode(t, "cut", data[:cut], bytes.NewReader(data[:cut]), wireBufSize)
	}
}

// TestWireLongStrings: a string longer than the read buffer — a dictionary
// name, a component, a message, or component and message of one frame — takes
// the copying path and still matches the oracle, as do the frames after it.
func TestWireLongStrings(t *testing.T) {
	long := func(n int) string { return strings.Repeat("0123456789", n/10+1)[:n] }
	recs := []Record{
		{Event: Event{Tenant: long(200), Kind: runtime.KindSample, Time: 1, Variable: long(65), Value: 2}},
		{Event: Event{Tenant: "a", Kind: runtime.KindError, Time: 2,
			Error: eventlog.Event{Time: 2, Component: long(300), Type: 1, Severity: 1, Message: "short"}}},
		{Event: Event{Tenant: "a", Kind: runtime.KindError, Time: 3,
			Error: eventlog.Event{Time: 3, Component: "db", Type: 2, Severity: 2, Message: long(5000)}}},
		{Event: Event{Tenant: "a", Kind: runtime.KindError, Time: 4,
			Error: eventlog.Event{Time: 4, Component: long(90), Type: 3, Message: long(wireBufSize + 100)}}},
		{Failure: true, Event: Event{Tenant: "a", Time: 5}},
		{Event: Event{Tenant: long(200), Kind: runtime.KindSample, Time: 6, Variable: "v", Value: 7}},
	}
	var buf bytes.Buffer
	if err := WriteWire(&buf, recs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, size := range []int{minWireBuf, 100, 4096, wireBufSize} {
		sameDecode(t, "long strings", data, bytes.NewReader(data), size)
		sameDecode(t, "long strings, 7-byte reads", data, &chunkReader{r: bytes.NewReader(data), n: 7}, size)
	}
	// Cut inside each long string: the copying path reports truncation.
	for _, cut := range []int{150, len(data) / 2, len(data) - 40} {
		sameDecode(t, "long strings cut", data[:cut], bytes.NewReader(data[:cut]), minWireBuf)
	}
	got, err := drain(newReaderSize(bytes.NewReader(data), minWireBuf))
	if err != nil || len(got) != len(recs) {
		t.Fatalf("decoded %d of %d records, err %v", len(got), len(recs), err)
	}
	for i := range recs {
		if !recordEqual(got[i], recs[i]) {
			t.Errorf("record %d differs from what was written", i)
		}
	}
}

// TestWireOracleOnCorpus: the malformed cases and the checked-in fuzz seeds
// get the oracle's verdict too.
func TestWireOracleOnCorpus(t *testing.T) {
	cases := [][]byte{
		{}, []byte("PFW"), []byte("XXXX\x03\x00\x00"), []byte("PFW1\xff"),
		[]byte("PFW1\x05\x09\x00\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("PFW1\x01\x00\x02t0\x03\x00\x07"),
		[]byte("PFW1\x01\x05\x02t0"),
		[]byte("PFW1\x01\x00\x10abc"),
		append([]byte("PFW1\x01\x00"), 0xff, 0xff, 0xff, 0xff, 0x7f),
		[]byte("PFW1\x01\x00\x02t0\x05\x00\x01\x02"),
		// varint overflow, error type out of range, undefined id before a cut
		append([]byte("PFW1\x01"), bytes.Repeat([]byte{0xff}, 11)...),
		[]byte("PFW1\x01\x00\x01a\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x0f\x00\x00\x00"),
		[]byte("PFW1\x03\x07"),
	}
	for _, data := range cases {
		for _, size := range []int{minWireBuf, wireBufSize} {
			sameDecode(t, "case", data, bytes.NewReader(data), size)
			sameDecode(t, "case, one-byte reads", data, iotest.OneByteReader(bytes.NewReader(data)), size)
		}
	}
}

// TestWireDecodeZeroAllocs: decoding sample and failure frames allocates
// nothing — no per-float buffer, no per-frame scratch — and an error frame
// that repeats the previous one's strings allocates nothing either.
func TestWireDecodeZeroAllocs(t *testing.T) {
	const frames = 3000
	recs := make([]Record, 0, frames)
	for i := 0; i < frames; i++ {
		tenant := []string{"t0", "t1", "t2"}[i%3]
		switch i % 3 {
		case 0, 1:
			recs = append(recs, Record{Event: Event{Tenant: tenant, Kind: runtime.KindSample, Time: float64(i), Variable: "cpu", Value: 0.5}})
		default:
			recs = append(recs, Record{Failure: true, Event: Event{Tenant: tenant, Time: float64(i)}})
		}
	}
	recs = append(recs, Record{Event: Event{Tenant: "t0", Kind: runtime.KindError, Time: 1,
		Error: eventlog.Event{Time: 1, Component: "db", Type: 7, Severity: 2, Message: "timeout"}}})
	errorsAt := len(recs)
	for i := 0; i < 500; i++ {
		recs = append(recs, recs[errorsAt-1])
	}
	var buf bytes.Buffer
	if err := WriteWire(&buf, recs); err != nil {
		t.Fatal(err)
	}
	// A small buffer, so that the run also crosses hundreds of refills.
	r := newReaderSize(bytes.NewReader(buf.Bytes()), 4096)
	for i := 0; i < 10; i++ { // past the magic and the dictionary frames
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	next := func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(frames-20, next); n != 0 {
		t.Errorf("sample/failure frames: %v allocs per frame, want 0", n)
	}
	for rec, err := r.Next(); ; rec, err = r.Next() { // up to the first error frame
		if err != nil {
			t.Fatal(err)
		}
		if rec.Event.Kind == runtime.KindError {
			break
		}
	}
	if n := testing.AllocsPerRun(400, next); n != 0 {
		t.Errorf("repeated error frames: %v allocs per frame, want 0", n)
	}
}
