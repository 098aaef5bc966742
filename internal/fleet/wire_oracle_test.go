package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/eventlog"
	"repro/internal/ingest"
)

// minWireBuf is the smallest read buffer bufio grants: shorter than any
// frame with a row in it, so at this size every frame takes the decoder's
// copying path and every refill stops inside one.
const minWireBuf = 16

// refDecode is the reference the in-place decoder must agree with on every
// input: the frame layout of runtime/frame.go read the obvious way — the
// whole stream in memory, one binary.Read per cell, a fresh slice per column
// and a Record per row. It returns the records of every frame before the
// first bad one, and the verdict: nil only if the stream ends on a frame
// boundary.
func refDecode(data []byte) (recs []ingest.Record, err error) {
	if len(data) < 4 || string(data[:4]) != "PFF1" {
		return nil, errors.New("ref: no magic")
	}
	data = data[4:]
	var dicts [4][]string // tenants, variables, components, messages
	for len(data) > 0 {
		if len(data) < 8 {
			return recs, errors.New("ref: truncated header")
		}
		rows, size := int(binary.LittleEndian.Uint32(data)), int(binary.LittleEndian.Uint32(data[4:]))
		if size > len(data)-8 {
			return recs, errors.New("ref: truncated body")
		}
		frame, err := refFrame(data[8:8+size], rows, &dicts)
		if err != nil {
			return recs, err
		}
		recs, data = append(recs, frame...), data[8+size:]
	}
	return recs, nil
}

func refFrame(body []byte, rows int, dicts *[4][]string) ([]ingest.Record, error) {
	r := bytes.NewReader(body)
	for k := range dicts {
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		for ; count > 0; count-- {
			size, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			if size > 1<<20 || size > uint64(r.Len()) {
				return nil, fmt.Errorf("ref: string of %d bytes", size)
			}
			s := make([]byte, size)
			io.ReadFull(r, s)
			dicts[k] = append(dicts[k], string(s))
		}
	}
	if rows > r.Len() {
		return nil, fmt.Errorf("ref: %d rows in %d bytes", rows, r.Len())
	}
	// column reads count cells of the given byte width as uint64s.
	column := func(count, width int) ([]uint64, error) {
		out := make([]uint64, count)
		for i := range out {
			cell := make([]byte, 8)
			if _, err := io.ReadFull(r, cell[:width]); err != nil {
				return nil, fmt.Errorf("ref: column runs past the frame: %v", err)
			}
			out[i] = binary.LittleEndian.Uint64(cell)
		}
		return out, nil
	}
	width := func(dictLen int) int {
		for w := 1; ; w *= 2 {
			if dictLen <= 1<<(8*w) {
				return w
			}
		}
	}
	kinds, err := column(rows, 1)
	if err != nil {
		return nil, err
	}
	var samples, errs int
	for _, k := range kinds {
		switch k {
		case 0:
			errs++
		case 1:
			samples++
		case 2:
		default:
			return nil, fmt.Errorf("ref: kind %d", k)
		}
	}
	var cols [7][]uint64 // tenant, time, key, value, type, severity, message
	for i, c := range []struct{ count, width int }{
		{rows, width(len(dicts[0]))}, {rows, 8}, {rows, width(max(len(dicts[1]), len(dicts[2])))},
		{samples, 8}, {errs, 4}, {errs, 1}, {errs, width(len(dicts[3]))},
	} {
		if cols[i], err = column(c.count, c.width); err != nil {
			return nil, err
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ref: %d bytes after the columns", r.Len())
	}
	lookup := func(dict []string, id uint64) (string, error) {
		if id >= uint64(len(dict)) {
			return "", fmt.Errorf("ref: id %d of %d", id, len(dict))
		}
		return dict[id], nil
	}
	var out []ingest.Record
	s, e := 0, 0
	for i, kind := range kinds {
		rec := ingest.Record{Failure: kind == 2}
		ev := &rec.Event
		ev.Time = math.Float64frombits(cols[1][i])
		if math.IsNaN(ev.Time) {
			return nil, errors.New("ref: NaN time")
		}
		if ev.Tenant, err = lookup(dicts[0], cols[0][i]); err != nil {
			return nil, err
		}
		switch kind {
		case 1:
			ev.Kind, ev.Value = ingest.KindSample, math.Float64frombits(cols[3][s])
			if ev.Variable, err = lookup(dicts[1], cols[2][i]); err != nil {
				return nil, err
			}
			s++
		case 0:
			ev.Kind, ev.Error.Time = ingest.KindError, ev.Time
			ev.Error.Type, ev.Error.Severity = int(cols[4][e]), eventlog.Severity(cols[5][e])
			if ev.Error.Type > math.MaxInt32 || ev.Error.Severity < 1 || ev.Error.Severity > 4 {
				return nil, fmt.Errorf("ref: type %d severity %d", ev.Error.Type, ev.Error.Severity)
			}
			if ev.Error.Component, err = lookup(dicts[2], cols[2][i]); err != nil {
				return nil, err
			}
			if ev.Error.Message, err = lookup(dicts[3], cols[6][e]); err != nil {
				return nil, err
			}
			e++
		}
		out = append(out, rec)
	}
	return out, nil
}

// drain reads src to its end: the records before the first error, and that
// error (nil for a clean io.EOF).
func drain(src Source) ([]ingest.Record, error) {
	var out []ingest.Record
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

// sameDecode fails unless the Reader (over src, with a read buffer of size
// bytes) yields exactly the reference's records and ends the same way:
// cleanly, or with a malformed-input error.
func sameDecode(t *testing.T, label string, data []byte, src io.Reader, size int) {
	t.Helper()
	want, wantErr := refDecode(data)
	got, gotErr := drain(newReaderSize(src, size))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", label, gotErr, wantErr)
	}
	if gotErr != nil && !errors.Is(gotErr, ErrFleet) {
		t.Fatalf("%s: err = %v, want a malformed-input error", label, gotErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d records, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if !recordEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// boundaryTrace mixes every kind of row with strings of many lengths.
func boundaryTrace() []ingest.Record {
	recs := wireSampleTrace()
	for i := 0; i < 40; i++ {
		tenant := "t" + strings.Repeat("x", i%7)
		recs = append(recs,
			ingest.Record{Event: ingest.Event{Tenant: tenant, Kind: ingest.KindSample, Time: float64(i), Variable: "v" + strings.Repeat("y", i%5), Value: float64(i) / 3}},
			ingest.Record{Event: ingest.Event{Tenant: tenant, Kind: ingest.KindError, Time: float64(i),
				Error: eventlog.Event{Time: float64(i), Component: strings.Repeat("c", i%4), Type: i * 1000, Severity: eventlog.Severity(1 + i%4), Message: strings.Repeat("m", i)}}},
			ingest.Record{Failure: true, Event: ingest.Event{Tenant: tenant, Time: float64(i)}},
		)
	}
	return recs
}

// framed encodes recs with a Flush after every per records, so that frames of
// many sizes — header, delta and column edges at every offset — follow each
// other in one stream.
func framed(t testing.TB, recs []ingest.Record, per int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if (i+1)%per == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestWireBufferBoundary: frames straddling the read buffer's edge, frames
// longer than the whole buffer, and reads that stop mid-frame decode exactly
// as the reference decodes the stream held in memory — for every buffer size
// over a range wider than the small frames and every read granularity up to
// it.
func TestWireBufferBoundary(t *testing.T) {
	data := framed(t, boundaryTrace(), 3)
	for size := minWireBuf; size <= minWireBuf+80; size++ {
		sameDecode(t, "whole reads", data, bytes.NewReader(data), size)
		sameDecode(t, "one-byte reads", data, iotest.OneByteReader(bytes.NewReader(data)), size)
	}
	for n := 1; n <= 150; n++ {
		sameDecode(t, "chunked reads", data, &chunkReader{r: bytes.NewReader(data), n: n}, minWireBuf)
		sameDecode(t, "chunked reads", data, &chunkReader{r: bytes.NewReader(data), n: n}, 4096)
	}
}

// TestWireTruncatedEverywhere: a multi-frame stream cut at any byte yields
// the records of the frames before the cut, and a clean end only where the
// cut is a frame boundary — checked against the reference and against the
// boundaries the Writer reported.
func TestWireTruncatedEverywhere(t *testing.T) {
	recs := boundaryTrace()[:30]
	var buf bytes.Buffer
	w := NewWriter(&buf)
	boundary := map[int]int{} // byte offset → records before it
	for i, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 || i == len(recs)-1 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			boundary[buf.Len()] = i + 1
		}
	}
	data := buf.Bytes()
	boundary[len(WireMagic)] = 0
	for cut := 0; cut <= len(data); cut++ {
		sameDecode(t, "cut", data[:cut], bytes.NewReader(data[:cut]), minWireBuf)
		sameDecode(t, "cut", data[:cut], bytes.NewReader(data[:cut]), wireBufSize)
		got, err := drain(NewReader(bytes.NewReader(data[:cut])))
		n, clean := boundary[cut]
		if (err == nil) != clean || (clean && len(got) != n) {
			t.Fatalf("cut at %d: %d records, err %v; frame boundary: %v (%d records)", cut, len(got), err, clean, n)
		}
	}
}

// TestWireLongStrings: a string longer than the read buffer — a dictionary
// name, a component, a message, or several in one frame's delta — puts its
// frame on the copying path, and the frame and those after it still match
// the reference and what was written.
func TestWireLongStrings(t *testing.T) {
	long := func(n int) string { return strings.Repeat("0123456789", n/10+1)[:n] }
	recs := []ingest.Record{
		{Event: ingest.Event{Tenant: long(200), Kind: ingest.KindSample, Time: 1, Variable: long(65), Value: 2}},
		{Event: ingest.Event{Tenant: "a", Kind: ingest.KindError, Time: 2,
			Error: eventlog.Event{Time: 2, Component: long(300), Type: 1, Severity: 1, Message: "short"}}},
		{Event: ingest.Event{Tenant: "a", Kind: ingest.KindError, Time: 3,
			Error: eventlog.Event{Time: 3, Component: "db", Type: 2, Severity: 2, Message: long(5000)}}},
		{Event: ingest.Event{Tenant: "a", Kind: ingest.KindError, Time: 4,
			Error: eventlog.Event{Time: 4, Component: long(90), Type: 3, Severity: 3, Message: long(wireBufSize + 100)}}},
		{Failure: true, Event: ingest.Event{Tenant: "a", Time: 5}},
		{Event: ingest.Event{Tenant: long(200), Kind: ingest.KindSample, Time: 6, Variable: "v", Value: 7}},
	}
	for _, per := range []int{1, 2, len(recs)} {
		data := framed(t, recs, per)
		for _, size := range []int{minWireBuf, 100, 4096, wireBufSize} {
			sameDecode(t, "long strings", data, bytes.NewReader(data), size)
			sameDecode(t, "long strings, 7-byte reads", data, &chunkReader{r: bytes.NewReader(data), n: 7}, size)
		}
		// Cut inside the long strings: the copying path reports truncation.
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
}

// corpusSeeds returns the inputs of the checked-in FuzzWireDecode corpus.
func corpusSeeds(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzWireDecode/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	var seeds [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestWireOracleOnCorpus: the malformed cases and the checked-in fuzz seeds
// get the reference's verdict too, at both ends of the buffer-size range.
func TestWireOracleOnCorpus(t *testing.T) {
	cases := corpusSeeds(t)
	for _, data := range malformedFrames(t) {
		cases = append(cases, data)
	}
	for _, data := range cases {
		for _, size := range []int{minWireBuf, wireBufSize} {
			sameDecode(t, "case", data, bytes.NewReader(data), size)
			sameDecode(t, "case, one-byte reads", data, iotest.OneByteReader(bytes.NewReader(data)), size)
		}
	}
}

// TestWireDecodeZeroAllocs: a steady-state frame of samples and failure
// marks decodes without allocating — no per-frame columns, no per-float
// buffer — and so does a frame of error rows once their component and
// message are in the stream's dictionary.
func TestWireDecodeZeroAllocs(t *testing.T) {
	const rows = 3000
	recs := make([]ingest.Record, 0, rows)
	for i := 0; i < rows; i++ {
		tenant := []string{"t0", "t1", "t2"}[i%3]
		switch i % 3 {
		case 0, 1:
			recs = append(recs, ingest.Record{Event: ingest.Event{Tenant: tenant, Kind: ingest.KindSample, Time: float64(i), Variable: "cpu", Value: 0.5}})
		default:
			recs = append(recs, ingest.Record{Failure: true, Event: ingest.Event{Tenant: tenant, Time: float64(i)}})
		}
	}
	recs = append(recs, ingest.Record{Event: ingest.Event{Tenant: "t0", Kind: ingest.KindError, Time: 1,
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
	next := func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*slabRecords; i++ { // past the magic, the dictionaries and the columns' growth
		next()
	}
	if n := testing.AllocsPerRun(rows-3*slabRecords, next); n != 0 {
		t.Errorf("sample/failure rows: %v allocs per record, want 0", n)
	}
	for rec, err := r.Next(); ; rec, err = r.Next() { // up to the first error row
		if err != nil {
			t.Fatal(err)
		}
		if rec.Event.Kind == ingest.KindError && !rec.Failure {
			break
		}
	}
	if n := testing.AllocsPerRun(400, next); n != 0 {
		t.Errorf("repeated error rows: %v allocs per record, want 0", n)
	}
}
