package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/eventlog"
	"repro/internal/ingest"
)

// Text line protocol: one record per line, pipe-separated — the shape of a
// syslog/sadc-style collector feed. Three record types:
//
//	E|tenant|time|component|type|severity|message   error-log event
//	S|tenant|time|variable|value                    monitoring sample
//	F|tenant|time                                   ground-truth failure
//
// Message is the trailing field of E and may not contain '|' or newlines
// (the same restriction eventlog.Log enforces). Blank lines and lines
// starting with '#' are skipped.

// FormatRecord renders one record as a protocol line (no newline).
func FormatRecord(r ingest.Record) string {
	ev := r.Event
	if r.Failure {
		return fmt.Sprintf("F|%s|%g", ev.Tenant, ev.Time)
	}
	if ev.Kind == ingest.KindError {
		return fmt.Sprintf("E|%s|%g|%s|%d|%d|%s",
			ev.Tenant, ev.Time, ev.Error.Component, ev.Error.Type,
			int(ev.Error.Severity), ev.Error.Message)
	}
	return fmt.Sprintf("S|%s|%g|%s|%g", ev.Tenant, ev.Time, ev.Variable, ev.Value)
}

// WriteTrace writes records as protocol lines.
func WriteTrace(w io.Writer, recs []ingest.Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if _, err := bw.WriteString(FormatRecord(r)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseLine decodes one protocol line (skip == true for blanks/comments).
func ParseLine(line string) (rec ingest.Record, skip bool, err error) {
	line = strings.TrimRight(line, "\r\n")
	if line == "" || strings.HasPrefix(line, "#") {
		return ingest.Record{}, true, nil
	}
	// Message may not contain '|', so a fixed SplitN per type is exact.
	kind, rest, ok := strings.Cut(line, "|")
	if !ok {
		return ingest.Record{}, false, badRecord("line %q: no fields", line)
	}
	switch kind {
	case "F":
		f := strings.Split(rest, "|")
		if len(f) != 2 {
			return ingest.Record{}, false, badRecord("F line: want 2 fields, got %d", len(f))
		}
		t, err := parseTime(f[1])
		if err != nil {
			return ingest.Record{}, false, err
		}
		return ingest.Record{Failure: true, Event: ingest.Event{Tenant: f[0], Time: t}}, false, nil
	case "S":
		f := strings.Split(rest, "|")
		if len(f) != 4 {
			return ingest.Record{}, false, badRecord("S line: want 4 fields, got %d", len(f))
		}
		t, err := parseTime(f[1])
		if err != nil {
			return ingest.Record{}, false, err
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return ingest.Record{}, false, badRecord("S line value %q: %v", f[3], err)
		}
		return ingest.Record{Event: ingest.Event{
			Tenant: f[0], Kind: ingest.KindSample, Time: t, Variable: f[2], Value: v,
		}}, false, nil
	case "E":
		f := strings.SplitN(rest, "|", 6)
		if len(f) != 6 {
			return ingest.Record{}, false, badRecord("E line: want 6 fields, got %d", len(f))
		}
		t, err := parseTime(f[1])
		if err != nil {
			return ingest.Record{}, false, err
		}
		typ, err := strconv.Atoi(f[3])
		if err != nil {
			return ingest.Record{}, false, badRecord("E line type %q: %v", f[3], err)
		}
		sev, err := strconv.Atoi(f[4])
		if err != nil {
			return ingest.Record{}, false, badRecord("E line severity %q: %v", f[4], err)
		}
		return ingest.Record{Event: ingest.Event{
			Tenant: f[0], Kind: ingest.KindError, Time: t,
			Error: eventlog.Event{
				Time: t, Component: f[2], Type: typ,
				Severity: eventlog.Severity(sev), Message: f[5],
			},
		}}, false, nil
	default:
		return ingest.Record{}, false, badRecord("unknown record type %q", kind)
	}
}

func parseTime(s string) (float64, error) {
	t, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, badRecord("bad time %q: %v", s, err)
	}
	return t, nil
}

// TailSource reads protocol lines from a stream until io.EOF, each of at most
// maxWireString bytes: the one line reader, under OpenTrace's text files and
// the listener's text connections alike, so both refuse the same over-long
// line and neither holds more of it than the cap.
type TailSource struct {
	sc   *bufio.Scanner
	line int   // lines read so far
	err  error // what ended the stream: a Scanner past ErrTooLong would go on
}

// NewTailSource reads from r.
func NewTailSource(r io.Reader) *TailSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxWireString)
	return &TailSource{sc: sc}
}

// Next returns the next decoded record. A malformed line is reported with
// its line number; the stream position advances past it, so callers may
// skip the error and keep calling Next. A final line without a newline is
// still parsed; the call after it returns io.EOF. A line over the cap is an
// error naming its number and the cap, and ends the stream: every later
// call returns it again.
func (s *TailSource) Next() (ingest.Record, error) {
	for s.err == nil && s.sc.Scan() {
		s.line++
		rec, skip, err := ParseLine(s.sc.Text())
		if err != nil {
			return ingest.Record{}, fmt.Errorf("line %d: %w", s.line, err)
		}
		if !skip {
			return rec, nil
		}
	}
	if s.err == nil {
		switch s.err = s.sc.Err(); {
		case errors.Is(s.err, bufio.ErrTooLong):
			s.err = fmt.Errorf("line %d: %w", s.line+1, badRecord("longer than %d bytes", maxWireString))
		case s.err == nil:
			s.err = io.EOF
		}
	}
	return ingest.Record{}, s.err
}
