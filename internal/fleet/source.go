package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/eventlog"
	"repro/internal/runtime"
	"repro/internal/scp"
)

// Record is one unit of a tenant trace: an ingestable event, or a
// ground-truth failure mark (Failure true; Event carries Tenant and Time).
type Record struct {
	Event   Event
	Failure bool
}

// Source yields a tenant trace record by record. Next returns io.EOF when
// the trace is exhausted; any other error aborts the pump. A Source has one
// consumer — Pump — and no implementation's Next may be called from two
// goroutines at once. Implementations in this package: SliceSource
// (in-process), TailSource (text line protocol), Reader (binary wire
// format), ListenSource (either encoding over TCP); OpenTrace opens a
// recorded file in either encoding. Record is also what the tools exchange:
// cmd/loggen writes the simulator's output as records in both encodings,
// cmd/predict and pfmd -fleet-trace read them back.
type Source interface {
	Next() (Record, error)
}

// isWire reports whether the stream behind br is binary — the one test that
// tells the wire format from the text line protocol, on a file (OpenTrace)
// and on a socket (decodeStream) alike. A retired format's magic counts: the
// Reader refuses it by name, where the text parser would report garbage.
func isWire(br *bufio.Reader) bool {
	magic, _ := br.Peek(len(WireMagic))
	return string(magic) == WireMagic || string(magic) == "PFW1" || string(magic) == "PFC1"
}

// OpenTrace opens a recorded trace file in either encoding, told apart by
// its first four bytes, never by its name. The Closer releases the file. A
// file in a retired binary format opens too: its first Next says so.
func OpenTrace(path string) (Source, io.Closer, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(fh, wireBufSize)
	if isWire(br) {
		return NewReader(br), fh, nil
	}
	return NewTailSource(br), fh, nil
}

// Pump drains src into the fleet: events go through Ingest under the
// configured overflow policy, failure marks through RecordFailure. It
// returns the number of records consumed and the first hard error
// (unknown-tenant rejections are counted and skipped, not fatal — one bad
// tenant in a shared trace must not stall the rest of the fleet).
func Pump(ctx context.Context, f *Fleet, src Source) (int, error) {
	n := 0
	for {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if rec.Failure {
			err = f.RecordFailure(rec.Event.Tenant, rec.Event.Time)
		} else {
			err = f.Ingest(ctx, rec.Event)
		}
		switch {
		case errors.Is(err, ErrUnknownTenant):
			// counted via pfm_fleet_unknown_tenant_total; keep pumping
		case errors.Is(err, runtime.ErrClosed):
			return n, err
		case err != nil:
			return n, err
		}
		n++
	}
}

// SliceSource replays an in-memory record slice.
type SliceSource struct {
	recs []Record
	i    int
}

// NewSliceSource wraps recs (not copied).
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

func (s *SliceSource) Next() (Record, error) {
	if s.i >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// SCPRecords converts a merged multi-tenant simulator trace (see
// scp.MultiSystem.Drain) into fleet records — the in-process feeder path.
func SCPRecords(trace []scp.TraceRecord) []Record {
	out := make([]Record, 0, len(trace))
	for _, tr := range trace {
		out = append(out, scpRecord(tr))
	}
	return out
}

// scpRecord converts one simulator trace record.
func scpRecord(tr scp.TraceRecord) Record {
	switch tr.Kind {
	case scp.TraceFailure:
		return Record{Failure: true, Event: Event{Tenant: tr.Tenant, Time: tr.Time}}
	case scp.TraceError:
		return Record{Event: Event{
			Tenant: tr.Tenant, Kind: runtime.KindError, Time: tr.Time,
			Error: eventlog.Event{
				Time: tr.Time, Component: tr.Component, Type: tr.Type,
				Severity: eventlog.Severity(tr.Severity), Message: tr.Message,
			},
		}}
	default:
		return Record{Event: Event{
			Tenant: tr.Tenant, Kind: runtime.KindSample, Time: tr.Time,
			Variable: tr.Variable, Value: tr.Value,
		}}
	}
}

// badRecord wraps a malformed-input error with position context.
func badRecord(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFleet, fmt.Sprintf(format, args...))
}
